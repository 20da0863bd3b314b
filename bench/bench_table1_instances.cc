// Table 1: GPU vs CPU memory across popular GPU instances — the observation
// motivating CPU-memory checkpointing (host DRAM dwarfs GPU memory).
#include <iostream>

#include "bench/bench_util.h"

using namespace gemini;

int main() {
  bench::BenchReporter reporter("table1_instances", "Table 1: GPU and CPU memory of GPU instances",
                                "paper Table 1");

  TablePrinter table({"Instance type", "Cloud", "GPU", "GPU memory", "CPU memory", "CPU/GPU"});
  bool cpu_exceeds_gpu = true;
  for (const InstanceSpec& spec : InstanceCatalog()) {
    const double ratio = static_cast<double>(spec.cpu_memory) /
                         static_cast<double>(spec.total_gpu_memory());
    table.AddRow({spec.name, spec.cloud,
                  std::to_string(spec.num_gpus) + " " + spec.gpu_model,
                  std::to_string(spec.num_gpus) + " x " +
                      FormatBytes(spec.gpu_memory_per_gpu),
                  FormatBytes(spec.cpu_memory), TablePrinter::Fmt(ratio, 1) + "x"});
    const std::string key = bench::BenchReporter::MetricKey(spec.name);
    reporter.Metric(key + ".gpu_memory_bytes", static_cast<int64_t>(spec.total_gpu_memory()));
    reporter.Metric(key + ".cpu_memory_bytes", static_cast<int64_t>(spec.cpu_memory));
    reporter.Metric(key + ".cpu_to_gpu_ratio", ratio);
    cpu_exceeds_gpu &= spec.cpu_memory > spec.total_gpu_memory();
  }
  reporter.Table(table);
  reporter.ShapeCheck(cpu_exceeds_gpu,
                      "CPU memory exceeds total GPU memory on every instance,\n"
                      "so a few checkpoint replicas (2x model states each) fit in host DRAM.");
  return reporter.Finish();
}
