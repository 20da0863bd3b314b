// Extension (paper Section 9 future work): GEMINI's checkpoint scheduling
// applied to other parallelism strategies and to the Trainium accelerator.
// For each strategy, Algorithm 2 partitions the checkpoint into that
// strategy's own idle-span structure; the claim carried over from the paper
// is that per-iteration checkpointing stays free wherever the network has
// idle capacity — which all three strategies have, for different reasons
// (ZeRO-3: backward compute gaps; data parallel: the silent forward pass;
// pipeline parallel: tiny activation hops and the pipeline bubble).
#include <iostream>

#include "bench/bench_util.h"
#include "src/schedule/executor.h"
#include "src/training/parallelism.h"

using namespace gemini;

int main() {
  bench::BenchReporter reporter(
      "ext_parallelism", "Extension: checkpoint scheduling across parallelism strategies",
      "paper Section 9 (future work): pipeline/data parallelism and Trainium");

  // GPT-2 20B fits a single machine's accelerators, so all three strategies
  // are feasible on the same workload.
  const ModelConfig model = Gpt2_20B();

  TablePrinter table({"Strategy", "Instance", "Iter (s)", "Idle (s)", "Ckpt (s)",
                      "Iter w/ GEMINI (s)", "Overhead", "Fits"});
  bool pass = true;
  for (const auto& [strategy, instance] : std::vector<std::pair<ParallelismStrategy,
                                                                InstanceSpec>>{
           {ParallelismStrategy::kZero3, P4d24xlarge()},
           {ParallelismStrategy::kDataParallel, P4d24xlarge()},
           {ParallelismStrategy::kPipelineParallel, P4d24xlarge()},
           {ParallelismStrategy::kZero3, Trn1_32xlarge()},
       }) {
    TimelineParams timeline_params;
    timeline_params.model = model;
    timeline_params.instance = instance;
    timeline_params.num_machines = 16;
    ExecutorParams params;
    params.timeline = timeline_params;
    const IterationTimeline timeline = BuildTimelineFor(strategy, timeline_params);
    const ExecutionResult result = ExecuteOnTimeline(params, timeline);
    if (!result.status.ok()) {
      std::cerr << ParallelismStrategyName(strategy) << ": " << result.status << "\n";
      return 1;
    }
    table.AddRow({std::string(ParallelismStrategyName(strategy)), instance.name,
                  TablePrinter::Fmt(ToSeconds(result.baseline_iteration_time)),
                  TablePrinter::Fmt(ToSeconds(timeline.TotalIdle())),
                  TablePrinter::Fmt(ToSeconds(result.partition.planned_transmission_time)),
                  TablePrinter::Fmt(ToSeconds(result.iteration_time)),
                  TablePrinter::Fmt(result.overhead_fraction * 100.0) + " %",
                  result.partition.fits_within_idle_time ? "yes" : "no"});
    const std::string key = bench::BenchReporter::MetricKey(
        std::string(ParallelismStrategyName(strategy)) + " " + instance.name);
    reporter.Metric(key + ".baseline_iteration_seconds",
                    ToSeconds(result.baseline_iteration_time));
    reporter.Metric(key + ".idle_seconds", ToSeconds(timeline.TotalIdle()));
    reporter.Metric(key + ".checkpoint_seconds",
                    ToSeconds(result.partition.planned_transmission_time));
    reporter.Metric(key + ".overhead_fraction", result.overhead_fraction);
    pass &= result.overhead_fraction < 0.01 && result.partition.fits_within_idle_time;
  }
  reporter.Table(table);

  std::cout << "\nTrainium caveat: trn1.32xlarge has a 1:1 CPU:accelerator memory ratio\n"
               "(512 GB each), so hosting 2x double-buffered replicas bounds the\n"
               "checkpointable model at ~21 GB/machine vs ~288 GB on p4d.24xlarge.\n";

  reporter.ShapeCheck(pass,
                      "Algorithm 2 schedules the checkpoint into each strategy's idle\n"
                      "structure with zero iteration-time overhead, supporting the paper's\n"
                      "claim that the design generalizes beyond ZeRO-3.");
  return reporter.Finish();
}
