// Figure 15: scalability of the effective training time ratio.
//  (a) vs failure frequency at 16 instances: GEMINI stays near the
//      no-failure baseline even at 8 failures/day, HighFreq pays a 14.5%
//      serialization tax even with zero failures, Strawman collapses.
//  (b) vs cluster size with OPT's 1.5%/day per-machine failure rate: at
//      1000 instances GEMINI still delivers ~91%, ~54% above HighFreq,
//      while Strawman can hardly make progress.
#include <iostream>

#include "bench/bench_util.h"

using namespace gemini;

int main() {
  bench::BenchReporter reporter("fig15_scalability",
                                "Figure 15: effective training time ratio (GPT-2 100B)",
                                "paper Figure 15a/15b");

  const TimelineParams timeline = bench::P4dTimeline(Gpt2_100B());
  const ExecutionResult execution =
      ExecuteIterationWithCheckpoint(bench::GeminiExecutor(timeline));
  if (!execution.status.ok()) {
    std::cerr << execution.status << "\n";
    return 1;
  }
  const CheckpointWorkload workload = bench::MakeWorkload(timeline, execution);
  // Per the paper's methodology, the simulation uses software-failure
  // recovery costs (hardware behaves the same with standby machines).
  const SystemModel gemini = BuildGemini(workload, 0);
  const SystemModel highfreq = BuildHighFreq(workload);
  const SystemModel strawman = BuildStrawman(workload);

  std::cout << "(a) vs failures per day, 16 instances:\n";
  TablePrinter by_rate({"Failures/day", "No failure", "GEMINI", "HighFreq", "Strawman"});
  for (const double failures : {0.0, 1.0, 2.0, 4.0, 6.0, 8.0}) {
    by_rate.AddRow({TablePrinter::Fmt(failures, 0), TablePrinter::Fmt(1.0, 3),
                    TablePrinter::Fmt(gemini.EffectiveTrainingRatio(failures), 3),
                    TablePrinter::Fmt(highfreq.EffectiveTrainingRatio(failures), 3),
                    TablePrinter::Fmt(strawman.EffectiveTrainingRatio(failures), 3)});
    const std::string key = "failures_per_day_" + std::to_string(static_cast<int>(failures));
    reporter.Metric(key + ".gemini", gemini.EffectiveTrainingRatio(failures));
    reporter.Metric(key + ".highfreq", highfreq.EffectiveTrainingRatio(failures));
    reporter.Metric(key + ".strawman", strawman.EffectiveTrainingRatio(failures));
  }
  reporter.Table(by_rate);

  std::cout << "\n(b) vs number of instances (1.5% of machines fail per day):\n";
  TablePrinter by_size({"Instances", "Failures/day", "GEMINI", "HighFreq", "Strawman"});
  double gemini_1000 = 0.0;
  double highfreq_1000 = 0.0;
  for (const int machines : {16, 64, 128, 256, 512, 1000}) {
    const double failures = 0.015 * machines;
    const double g = gemini.EffectiveTrainingRatio(failures);
    const double h = highfreq.EffectiveTrainingRatio(failures);
    const double s = strawman.EffectiveTrainingRatio(failures);
    by_size.AddRow({TablePrinter::Fmt(static_cast<int64_t>(machines)),
                    TablePrinter::Fmt(failures, 1), TablePrinter::Fmt(g, 3),
                    TablePrinter::Fmt(h, 3), TablePrinter::Fmt(s, 3)});
    const std::string key = "instances_" + std::to_string(machines);
    reporter.Metric(key + ".gemini", g);
    reporter.Metric(key + ".highfreq", h);
    reporter.Metric(key + ".strawman", s);
    if (machines == 1000) {
      gemini_1000 = g;
      highfreq_1000 = h;
    }
  }
  reporter.Table(by_size);

  const double highfreq_tax = 1.0 - highfreq.EffectiveTrainingRatio(0.0);
  const bool pass = gemini.EffectiveTrainingRatio(8.0) > 0.92 &&
                    highfreq_tax > 0.12 && highfreq_tax < 0.16 &&
                    std::abs(gemini_1000 - 0.91) < 0.03 &&
                    gemini_1000 / highfreq_1000 > 1.35 &&
                    strawman.EffectiveTrainingRatio(15.0) < 0.15;
  std::cout << "\nHighFreq serialization tax at zero failures: "
            << TablePrinter::Fmt(highfreq_tax * 100.0, 1) << "% (paper: 14.5%)\n";
  std::cout << "GEMINI at 1000 instances: " << TablePrinter::Fmt(gemini_1000 * 100.0, 1)
            << "% (paper: ~91%), " << TablePrinter::Fmt((gemini_1000 / highfreq_1000 - 1.0) *
                                                         100.0, 0)
            << "% above HighFreq (paper: 54%)\n";
  reporter.Metric("headline.highfreq_tax_at_zero_failures", highfreq_tax);
  reporter.Metric("headline.gemini_at_1000_instances", gemini_1000);
  reporter.Metric("headline.gemini_vs_highfreq_at_1000_instances", gemini_1000 / highfreq_1000);
  reporter.ShapeCheck(pass,
                      "GEMINI flat in failure rate; HighFreq pays the serialization tax\n"
                      "even with no failures; Strawman collapses at scale.");
  return reporter.Finish();
}
