// Extension: protection-policy comparison under a fig09-style failure sweep.
//
// Runs the same training workload under each of the four protection policies
// (GEMINI in-memory checkpoints, TierCheck tiered CPU+persistent, Checkmate
// gradient logging, Recompute-from-peers) across increasing random failure
// rates, reporting each policy's steady-state checkpoint overhead and its
// realized recovery behaviour (downtime, wasted time, effective training
// ratio). A final run drives the online Chameleon selector through a quiet
// start followed by an injected failure-rate shift and reports its switch
// history.
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/gemini/gemini_system.h"
#include "src/policy/chameleon_selector.h"

using namespace gemini;

namespace {

GeminiConfig BaseConfig() {
  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 8;
  config.num_replicas = 2;
  config.payload_elements = 32;
  config.seed = 2024;
  config.cloud.num_standby = 4;
  return config;
}

struct RunResult {
  bool ok = false;
  int64_t iterations = 0;
  double wall_seconds = 0.0;
  double effective_ratio = 0.0;
  double overhead_fraction = 0.0;  // Policy self-report at end of run.
  int64_t recoveries = 0;
  double mean_downtime_seconds = 0.0;
  double mean_wasted_seconds = 0.0;
};

RunResult RunPolicy(PolicyKind kind, double failures_per_machine_day) {
  GeminiConfig config = BaseConfig();
  config.policy.kind = kind;
  RunResult result;
  auto system = GeminiSystem::Create(config);
  if (!system.ok()) {
    std::cerr << "system build failed: " << system.status() << "\n";
    return result;
  }
  if (failures_per_machine_day > 0.0) {
    // Mostly-software random arrivals over the whole run (the fig09/fig10
    // failure regime, scaled up so a bench-sized window sees several).
    (*system)->failure_injector().StartRandomArrivalsAt(
        /*start=*/0, failures_per_machine_day, /*software_fraction=*/0.9,
        /*until=*/Hours(12));
  }
  const StatusOr<TrainingReport> report = (*system)->TrainUntil(60, Hours(12));
  if (!report.ok()) {
    std::cerr << "run failed: " << report.status() << "\n";
    return result;
  }
  result.ok = true;
  result.iterations = report->iterations_completed;
  result.wall_seconds = ToSeconds(report->wall_time);
  result.effective_ratio = report->effective_training_ratio();
  result.overhead_fraction =
      (*system)->policy().CostReport(**system).steady_state_overhead_fraction;
  result.recoveries = static_cast<int64_t>(report->recoveries.size());
  for (const RecoveryRecord& recovery : report->recoveries) {
    result.mean_downtime_seconds += ToSeconds(recovery.downtime);
    result.mean_wasted_seconds += ToSeconds(recovery.wasted_time);
  }
  if (!report->recoveries.empty()) {
    result.mean_downtime_seconds /= static_cast<double>(report->recoveries.size());
    result.mean_wasted_seconds /= static_cast<double>(report->recoveries.size());
  }
  return result;
}

}  // namespace

int main() {
  bench::BenchReporter reporter(
      "ext_policies",
      "Extension: protection-policy comparison under a failure-rate sweep",
      "extension of Figures 9/10 across the ProtectionPolicy engine");

  const PolicyKind kinds[] = {PolicyKind::kGemini, PolicyKind::kTierCheck,
                              PolicyKind::kCheckmate, PolicyKind::kRecompute};
  const double rates[] = {0.0, 2.0, 6.0};  // Failures per machine-day.

  TablePrinter table({"policy", "fail/machine-day", "iters", "wall (s)", "overhead",
                      "eff. ratio", "recoveries", "downtime (s)", "wasted (s)"});
  bool all_ok = true;
  double overhead_by_kind[4] = {0, 0, 0, 0};
  double stormy_wasted_by_kind[4] = {0, 0, 0, 0};
  for (size_t k = 0; k < 4; ++k) {
    const std::string name(PolicyKindName(kinds[k]));
    for (const double rate : rates) {
      const RunResult run = RunPolicy(kinds[k], rate);
      all_ok = all_ok && run.ok && run.iterations == 60;
      table.AddRow({name, TablePrinter::Fmt(rate, 1), TablePrinter::Fmt(run.iterations),
                    TablePrinter::Fmt(run.wall_seconds, 1),
                    TablePrinter::Fmt(run.overhead_fraction, 4),
                    TablePrinter::Fmt(run.effective_ratio, 3),
                    TablePrinter::Fmt(run.recoveries),
                    TablePrinter::Fmt(run.mean_downtime_seconds, 1),
                    TablePrinter::Fmt(run.mean_wasted_seconds, 1)});
      const std::string key =
          name + ".rate" + bench::BenchReporter::MetricKey(TablePrinter::Fmt(rate, 1));
      reporter.Metric(key + ".iterations", run.iterations);
      reporter.Metric(key + ".wall_seconds", run.wall_seconds);
      reporter.Metric(key + ".overhead_fraction", run.overhead_fraction);
      reporter.Metric(key + ".effective_training_ratio", run.effective_ratio);
      reporter.Metric(key + ".recoveries", run.recoveries);
      reporter.Metric(key + ".mean_downtime_seconds", run.mean_downtime_seconds);
      reporter.Metric(key + ".mean_wasted_seconds", run.mean_wasted_seconds);
      overhead_by_kind[k] = run.overhead_fraction;
      if (rate == 6.0) {
        stormy_wasted_by_kind[k] = run.mean_wasted_seconds;
      }
    }
  }
  reporter.Table(table);

  // ---- Chameleon: quiet start, then an injected failure-rate shift --------
  std::cout << "\nChameleon selector (quiet start -> failure storm at t=40 min):\n";
  GeminiConfig chameleon_config = BaseConfig();
  chameleon_config.policy.kind = PolicyKind::kChameleon;
  auto chameleon = GeminiSystem::Create(chameleon_config);
  int64_t switch_count = 0;
  bool chameleon_ok = false;
  if (chameleon.ok()) {
    (*chameleon)->failure_injector().StartRandomArrivalsAt(
        Minutes(40), /*rate_per_machine_day=*/20.0, /*software_fraction=*/0.9,
        /*until=*/Hours(3));
    const StatusOr<TrainingReport> report = (*chameleon)->TrainUntil(200, Hours(4));
    const auto* selector =
        dynamic_cast<const ChameleonSelector*>(&(*chameleon)->policy());
    if (report.ok() && selector != nullptr) {
      chameleon_ok = true;
      switch_count = static_cast<int64_t>(selector->switches().size());
      TablePrinter switches({"iteration", "t (s)", "from", "to", "reason"});
      for (const PolicySwitchEvent& event : selector->switches()) {
        switches.AddRow({TablePrinter::Fmt(event.iteration),
                         TablePrinter::Fmt(ToSeconds(event.at), 1),
                         std::string(PolicyKindName(event.from)),
                         std::string(PolicyKindName(event.to)), event.reason});
      }
      reporter.Table(switches);
      reporter.Metric("chameleon.switches", switch_count);
      reporter.Metric("chameleon.iterations", report->iterations_completed);
      reporter.Metric("chameleon.recoveries",
                      static_cast<int64_t>(report->recoveries.size()));
      if (!selector->switches().empty()) {
        reporter.Metric("chameleon.first_switch_iteration",
                        selector->switches().front().iteration);
      }
    }
  }

  // ---- GeminiPolicy cost accounting under incremental delta checkpoints ----
  // A sparse-update workload (25% of chunks touched per step) with the delta
  // path on: the policy's self-reported steady-state overhead must shrink by
  // the observed delta-to-full byte ratio relative to the same workload with
  // full snapshots.
  std::cout << "\nGeminiPolicy with incremental delta checkpoints (25% dirty):\n";
  bool incremental_ok = false;
  {
    GeminiConfig base_cfg = BaseConfig();
    base_cfg.policy.kind = PolicyKind::kGemini;
    base_cfg.incremental.sparse_update_fraction = 0.25;
    base_cfg.incremental.chunk_elements = 4;
    GeminiConfig inc_cfg = base_cfg;
    inc_cfg.incremental.enabled = true;
    auto full_system = GeminiSystem::Create(base_cfg);
    auto inc_system = GeminiSystem::Create(inc_cfg);
    if (full_system.ok() && inc_system.ok()) {
      const StatusOr<TrainingReport> full_report = (*full_system)->TrainUntil(60, Hours(12));
      const StatusOr<TrainingReport> inc_report = (*inc_system)->TrainUntil(60, Hours(12));
      if (full_report.ok() && inc_report.ok()) {
        const double full_overhead =
            (*full_system)->policy().CostReport(**full_system).steady_state_overhead_fraction;
        const double inc_overhead =
            (*inc_system)->policy().CostReport(**inc_system).steady_state_overhead_fraction;
        const double delta_fraction = (*inc_system)->incremental_delta_fraction();
        const SystemSnapshot snapshot = (*inc_system)->Snapshot();
        TablePrinter inc_table({"mode", "overhead", "delta fraction", "delta commits",
                                "bytes saved", "compaction folds"});
        inc_table.AddRow({"full", TablePrinter::Fmt(full_overhead, 4), "1.0000", "0", "0", "0"});
        inc_table.AddRow({"incremental", TablePrinter::Fmt(inc_overhead, 4),
                          TablePrinter::Fmt(delta_fraction, 4),
                          TablePrinter::Fmt(snapshot.delta_commits),
                          TablePrinter::Fmt(snapshot.delta_bytes_saved),
                          TablePrinter::Fmt(snapshot.compaction_folds)});
        reporter.Table(inc_table);
        reporter.Metric("gemini_incremental.full_overhead_fraction", full_overhead);
        reporter.Metric("gemini_incremental.overhead_fraction", inc_overhead);
        reporter.Metric("gemini_incremental.delta_fraction", delta_fraction);
        reporter.Metric("gemini_incremental.delta_commits", snapshot.delta_commits);
        reporter.Metric("gemini_incremental.delta_bytes_saved", snapshot.delta_bytes_saved);
        reporter.Metric("gemini_incremental.compaction_folds", snapshot.compaction_folds);
        // The overhead product can be 0 * fraction == 0 when the traffic fits
        // the idle spans entirely, so the accounting check is <=.
        incremental_ok = inc_report->iterations_completed == 60 && delta_fraction < 1.0 &&
                         inc_overhead <= full_overhead * delta_fraction + 1e-12 &&
                         snapshot.delta_commits > 0;
      }
    }
  }

  // Shape: GEMINI hides its traffic inside idle spans (<= the paper's sub-5%
  // overhead claim), Checkmate's gradient tax and Recompute's nothing-at-all
  // stay near zero, and TierCheck's extra persistent cadence costs at least
  // as much as GEMINI alone; under the storm GEMINI loses the least progress
  // per failure (the fig10 wasted-time metric beats replay-from-base and
  // fixed recompute); and the online selector actually switches when the
  // observed failure rate shifts.
  const bool overhead_ordered = overhead_by_kind[0] <= 0.05 &&  // gemini sub-5%
                                overhead_by_kind[2] < 0.01 &&   // checkmate near-free
                                overhead_by_kind[3] == 0.0 &&   // recompute is free
                                overhead_by_kind[1] >= overhead_by_kind[0];  // tier adds
  const bool recovery_ordered = stormy_wasted_by_kind[0] < stormy_wasted_by_kind[2] &&
                                stormy_wasted_by_kind[0] < stormy_wasted_by_kind[3];
  const bool pass = all_ok && overhead_ordered && recovery_ordered && chameleon_ok &&
                    switch_count >= 1 && incremental_ok;
  reporter.ShapeCheck(
      pass,
      "All four policies survive the failure sweep; GEMINI keeps protection\n"
      "overhead under 5% and loses the least progress per failure under the\n"
      "storm; Checkmate/Recompute run (near-)checkpoint-free; the Chameleon\n"
      "selector switches at least once on the injected failure-rate shift;\n"
      "and the incremental delta path shrinks GEMINI's accounted overhead by\n"
      "the observed delta-to-full byte ratio.");
  return reporter.Finish();
}
