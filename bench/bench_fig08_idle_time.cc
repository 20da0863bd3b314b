// Figure 8: per-iteration network idle time without checkpoints, GEMINI's
// checkpoint (transmission) time, and the residual idle time with GEMINI.
// The claim: idle time is ample for the checkpoint traffic, and idle time
// remains even after GEMINI inserts all of it.
#include <iostream>

#include "bench/bench_util.h"

using namespace gemini;

int main() {
  bench::BenchReporter reporter(
      "fig08_idle_time",
      "Figure 8: network idle time vs GEMINI checkpoint time (16x p4d.24xlarge)",
      "paper Figure 8");

  TablePrinter table({"Model", "Idle w/o ckpt (s)", "GEMINI ckpt time (s)",
                      "Idle w/ GEMINI (s)", "Fits"});
  bool all_fit = true;
  for (const ModelConfig& model : {Gpt2_100B(), Roberta_100B(), Bert_100B()}) {
    const TimelineParams params = bench::P4dTimeline(model);
    const IterationTimeline timeline = BuildZero3Timeline(params);
    const ExecutionResult result =
        ExecuteIterationWithCheckpoint(bench::GeminiExecutor(params));
    if (!result.status.ok()) {
      std::cerr << "executor failed: " << result.status << "\n";
      return 1;
    }
    const double idle = ToSeconds(timeline.TotalIdle());
    const double ckpt = ToSeconds(result.partition.planned_transmission_time);
    table.AddRow({model.name, TablePrinter::Fmt(idle), TablePrinter::Fmt(ckpt),
                  TablePrinter::Fmt(idle - ckpt),
                  result.partition.fits_within_idle_time ? "yes" : "no"});
    const std::string key = bench::BenchReporter::MetricKey(model.name);
    reporter.Metric(key + ".idle_seconds", idle);
    reporter.Metric(key + ".checkpoint_seconds", ckpt);
    reporter.Metric(key + ".idle_with_gemini_seconds", idle - ckpt);
    all_fit &= result.partition.fits_within_idle_time && ckpt < idle;
  }
  reporter.Table(table);
  reporter.ShapeCheck(all_fit,
                      "checkpoint traffic fits inside the profiled idle spans with idle\n"
                      "time to spare (paper: ~12.5 s idle vs ~2.5 s checkpoint for GPT-2 100B).");
  return reporter.Finish();
}
