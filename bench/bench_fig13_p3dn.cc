// Figure 13: generalization to p3dn.24xlarge (V100, 100 Gb/s) across model
// sizes 10B-40B and architectures. Claims: (a) GEMINI minimally affects
// training throughput; (b) network idle time still accommodates the
// checkpoint traffic.
#include <iostream>

#include "bench/bench_util.h"

using namespace gemini;

int main() {
  bench::BenchReporter reporter("fig13_p3dn",
                                "Figure 13: p3dn.24xlarge generalization (16 instances)",
                                "paper Figure 13a/13b");

  TablePrinter table({"Model", "Baseline iter (s)", "GEMINI iter (s)", "Overhead",
                      "Idle w/o ckpt (s)", "Ckpt time (s)", "Idle w/ GEMINI (s)"});
  bool pass = true;
  for (const ModelConfig& model : {Gpt2_10B(), Gpt2_20B(), Gpt2_40B(), Roberta_40B(),
                                   Bert_40B()}) {
    const TimelineParams params = bench::P3dnTimeline(model);
    const IterationTimeline timeline = BuildZero3Timeline(params);
    const ExecutionResult result =
        ExecuteIterationWithCheckpoint(bench::GeminiExecutor(params));
    if (!result.status.ok()) {
      std::cerr << "executor failed for " << model.name << ": " << result.status << "\n";
      return 1;
    }
    const double idle = ToSeconds(timeline.TotalIdle());
    const double ckpt = ToSeconds(result.partition.planned_transmission_time);
    table.AddRow({model.name, TablePrinter::Fmt(ToSeconds(result.baseline_iteration_time)),
                  TablePrinter::Fmt(ToSeconds(result.iteration_time)),
                  TablePrinter::Fmt(result.overhead_fraction * 100.0) + " %",
                  TablePrinter::Fmt(idle), TablePrinter::Fmt(ckpt),
                  TablePrinter::Fmt(idle - ckpt)});
    const std::string key = bench::BenchReporter::MetricKey(model.name);
    reporter.Metric(key + ".baseline_iteration_seconds",
                    ToSeconds(result.baseline_iteration_time));
    reporter.Metric(key + ".gemini_iteration_seconds", ToSeconds(result.iteration_time));
    reporter.Metric(key + ".overhead_fraction", result.overhead_fraction);
    reporter.Metric(key + ".idle_seconds", idle);
    reporter.Metric(key + ".checkpoint_seconds", ckpt);
    pass &= result.overhead_fraction < 0.01 && ckpt < idle;
  }
  reporter.Table(table);
  reporter.ShapeCheck(pass,
                      "across 10B-40B models and three architectures on the slower\n"
                      "100 Gb/s network, idle time still covers the checkpoint traffic and\n"
                      "GEMINI leaves iteration time untouched.");
  return reporter.Finish();
}
