// Extension (paper Section 8): quantitative comparison with the related
// checkpointing systems the paper discusses qualitatively — DeepFreeze
// (async persistence), CheckFreq (tuned frequency), Check-N-Run (lossy
// compression) — on the Figure 10/12 workload. The claim carried over from
// Section 8: each improves one axis, but with the remote store still on the
// recovery path, none approaches GEMINI's wasted time.
#include <iostream>

#include "bench/bench_util.h"

using namespace gemini;

int main() {
  bench::BenchReporter reporter(
      "ext_related_work", "Extension: related-work comparison (GPT-2 100B, 16x p4d.24xlarge)",
      "paper Section 8 (related work), quantified on the Figure 10/12 workload");

  const TimelineParams timeline = bench::P4dTimeline(Gpt2_100B());
  const ExecutionResult execution =
      ExecuteIterationWithCheckpoint(bench::GeminiExecutor(timeline));
  if (!execution.status.ok()) {
    std::cerr << execution.status << "\n";
    return 1;
  }
  const CheckpointWorkload workload = bench::MakeWorkload(timeline, execution);

  const SystemModel gemini = BuildGemini(workload, /*replaced_machines=*/1);
  std::vector<SystemModel> systems = {
      BuildStrawman(workload),   BuildHighFreq(workload),  BuildDeepFreeze(workload),
      BuildCheckFreq(workload),  BuildCheckNRun(workload), gemini,
  };

  TablePrinter table({"System", "Ckpt interval", "Train stall/ckpt", "Avg wasted time",
                      "vs GEMINI", "Notes"});
  bool gemini_wins = true;
  for (const SystemModel& model : systems) {
    const double ratio = static_cast<double>(model.AverageWastedTime()) /
                         static_cast<double>(gemini.AverageWastedTime());
    std::string note;
    if (model.name == "DeepFreeze") {
      note = "async, but store-bound frequency";
    } else if (model.name == "CheckFreq") {
      note = "overhead-capped frequency tuning";
    } else if (model.name == "Check-N-Run") {
      note = "4x lossy compression (accuracy risk)";
    } else if (model.name == "GEMINI") {
      note = "CPU-memory tier, lossless";
    }
    table.AddRow({model.name, FormatDuration(model.checkpoint_interval),
                  FormatDuration(model.training_block_per_checkpoint),
                  FormatDuration(model.AverageWastedTime()),
                  TablePrinter::Fmt(ratio, 1) + "x", note});
    const std::string key = bench::BenchReporter::MetricKey(model.name);
    reporter.Metric(key + ".checkpoint_interval_seconds", ToSeconds(model.checkpoint_interval));
    reporter.Metric(key + ".wasted_seconds", ToSeconds(model.AverageWastedTime()));
    reporter.Metric(key + ".wasted_vs_gemini", ratio);
    if (model.name == "Check-N-Run") {
      // Lossy 4x compression narrows the gap the most — to ~4x — while
      // GEMINI stays lossless.
      gemini_wins &= ratio > 3.0;
    } else if (model.name != "GEMINI") {
      gemini_wins &= ratio > 10.0;
    }
  }
  reporter.Table(table);

  reporter.ShapeCheck(gemini_wins,
                      "every remote-storage design still pays the store's bandwidth on\n"
                      "the recovery path: >10x GEMINI's wasted time for the lossless designs,\n"
                      "and even 4x lossy compression only narrows the gap to ~4x.");
  return reporter.Finish();
}
