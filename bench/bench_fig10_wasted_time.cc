// Figure 10: average wasted time for GPT-2 100B on 16x p4d.24xlarge, by the
// number of simultaneously replaced instances. Claims: the baselines are
// flat (always remote-storage recovery); GEMINI is 1.5 iterations for
// software failures, ~13x+ better than HighFreq when CPU-memory recovery
// succeeds, and degrades to Strawman when an entire group is lost (6.7%
// of double failures at N=16).
#include <iostream>

#include "bench/bench_util.h"
#include "src/placement/probability.h"

using namespace gemini;

int main() {
  bench::BenchReporter reporter("fig10_wasted_time",
                                "Figure 10: average wasted time vs replaced instances (GPT-2 100B)",
                                "paper Figure 10");

  const TimelineParams timeline = bench::P4dTimeline(Gpt2_100B());
  const ExecutionResult execution =
      ExecuteIterationWithCheckpoint(bench::GeminiExecutor(timeline));
  if (!execution.status.ok()) {
    std::cerr << execution.status << "\n";
    return 1;
  }
  const CheckpointWorkload workload = bench::MakeWorkload(timeline, execution);
  const SystemModel strawman = BuildStrawman(workload);
  const SystemModel highfreq = BuildHighFreq(workload);

  TablePrinter table({"Replaced", "Strawman (min)", "HighFreq (min)",
                      "GEMINI from-CPU (min)", "P(from CPU)", "GEMINI expected (min)"});
  double speedup_at_one = 0.0;
  for (const int replaced : {0, 1, 2, 3}) {
    const SystemModel gemini = BuildGemini(workload, replaced);
    const double p_cpu = Corollary1LowerBound(16, 2, std::max(replaced, 0));
    const double cpu_min = ToSeconds(gemini.AverageWastedTime()) / 60.0;
    const double fallback_min =
        ToSeconds(BuildGeminiPersistentFallback(workload).AverageWastedTime()) / 60.0;
    const double expected = p_cpu * cpu_min + (1.0 - p_cpu) * fallback_min;
    table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(replaced)),
                  TablePrinter::Fmt(ToSeconds(strawman.AverageWastedTime()) / 60.0),
                  TablePrinter::Fmt(ToSeconds(highfreq.AverageWastedTime()) / 60.0),
                  TablePrinter::Fmt(cpu_min), TablePrinter::Fmt(p_cpu, 3),
                  TablePrinter::Fmt(expected)});
    const std::string key = "replaced_" + std::to_string(replaced);
    reporter.Metric(key + ".strawman_minutes", ToSeconds(strawman.AverageWastedTime()) / 60.0);
    reporter.Metric(key + ".highfreq_minutes", ToSeconds(highfreq.AverageWastedTime()) / 60.0);
    reporter.Metric(key + ".gemini_from_cpu_minutes", cpu_min);
    reporter.Metric(key + ".p_from_cpu", p_cpu);
    reporter.Metric(key + ".gemini_expected_minutes", expected);
    if (replaced == 1) {
      speedup_at_one = static_cast<double>(highfreq.AverageWastedTime()) /
                       static_cast<double>(gemini.AverageWastedTime());
    }
  }
  reporter.Table(table);

  const SystemModel gemini0 = BuildGemini(workload, 0);
  const double ratio_to_iter = static_cast<double>(gemini0.AverageWastedTime()) /
                               static_cast<double>(workload.iteration_time);
  const bool pass = speedup_at_one > 13.0 && std::abs(ratio_to_iter - 1.5) < 0.01;
  std::cout << "\nGEMINI vs HighFreq wasted-time reduction at 1 replaced instance: "
            << TablePrinter::Fmt(speedup_at_one, 1) << "x\n";
  std::cout << "GEMINI software-failure wasted time: " << TablePrinter::Fmt(ratio_to_iter, 2)
            << " iterations\n";
  reporter.Metric("headline.reduction_vs_highfreq_at_1_replaced", speedup_at_one);
  reporter.Metric("headline.software_failure_wasted_iterations", ratio_to_iter);
  reporter.ShapeCheck(pass,
                      "1.5 T_iter for software failures; >13x reduction vs HighFreq for\n"
                      "CPU-memory recovery; degradation to Strawman only when a whole group\n"
                      "fails (probability 6.7% for two replaced instances at N=16).");
  return reporter.Finish();
}
