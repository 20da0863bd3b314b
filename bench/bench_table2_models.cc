// Table 2: language-model configurations, plus the checkpoint sizing derived
// from them (9.4 GB/GPU for GPT-2 100B on 128 GPUs, Section 5.2).
#include <iostream>

#include "bench/bench_util.h"

using namespace gemini;

int main() {
  bench::BenchReporter reporter("table2_models", "Table 2: model configurations",
                                "paper Table 2");

  TablePrinter table({"Model", "Hidden", "Intermediate", "#Layers", "#AH", "Ckpt total",
                      "Ckpt/GPU (128)", "Formula params"});
  double gpt2_100b_per_gpu_gb = 0.0;
  for (const ModelConfig& model : Table2Models()) {
    const double per_gpu_gb = static_cast<double>(model.CheckpointBytesPerGpu(128)) / 1e9;
    table.AddRow({model.name, TablePrinter::Fmt(static_cast<int64_t>(model.hidden_size)),
                  TablePrinter::Fmt(static_cast<int64_t>(model.intermediate_size)),
                  TablePrinter::Fmt(static_cast<int64_t>(model.num_layers)),
                  TablePrinter::Fmt(static_cast<int64_t>(model.attention_heads)),
                  FormatBytes(model.CheckpointBytesTotal()),
                  TablePrinter::Fmt(per_gpu_gb, 2) + " GB",
                  TablePrinter::Fmt(static_cast<double>(model.FormulaParams()) / 1e9, 1) + "B"});
    const std::string key = bench::BenchReporter::MetricKey(model.name);
    reporter.Metric(key + ".checkpoint_total_bytes",
                    static_cast<int64_t>(model.CheckpointBytesTotal()));
    reporter.Metric(key + ".checkpoint_per_gpu_128_gb", per_gpu_gb);
    reporter.Metric(key + ".formula_params", static_cast<int64_t>(model.FormulaParams()));
    if (model.name == Gpt2_100B().name) {
      gpt2_100b_per_gpu_gb = per_gpu_gb;
    }
  }
  reporter.Table(table);
  reporter.ShapeCheck(TablePrinter::Fmt(gpt2_100b_per_gpu_gb, 2) == "9.38",
                      "GPT-2 100B checkpoints 9.38 GB per GPU on 128 GPUs,\n"
                      "matching the paper's 9.4 GB figure (12 bytes/parameter, ZeRO-3 sharded).");
  return reporter.Finish();
}
