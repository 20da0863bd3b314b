// Extension: recovery outcome versus overlapping-failure depth. The paper
// evaluates isolated failures; this experiment drives 0, 1, and 2 extra
// hardware failures into the middle of an in-flight recovery (armed on the
// recovery-start trigger, landing in the serialization window) and measures
// how the hardened recovery path resolves the cascade: how many
// RecoveryRecords are emitted (one per absorbed report, none dropped), the
// recovery source the merged case resolves to, the end-to-end downtime, and
// the redundancy-degraded window closed by background re-protection.
#include <iostream>

#include "bench/bench_util.h"
#include "src/gemini/gemini_system.h"

using namespace gemini;

namespace {

struct Measurement {
  int records = 0;
  int64_t preempted = 0;
  int64_t deduplicated = 0;
  int64_t reported = 0;
  RecoveryStepKind source = RecoveryStepKind::kRestoreFromLocalCpu;
  TimeNs downtime = 0;
  double degraded_seconds = 0.0;
  bool state_ok = false;
};

StatusOr<Measurement> RunDepth(int depth) {
  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 8;
  config.num_replicas = 2;
  config.payload_elements = 16;
  config.cloud.num_standby = 4;
  GeminiSystem system(config);
  GEMINI_RETURN_IF_ERROR(system.Initialize());

  // First failure at 4 min; each extra cascade layer hits a different
  // placement group (groups {2,3}, {4,5}, {6,7} all keep one survivor) a few
  // seconds into the previous recovery's serialization window.
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7});
  const int cascade_ranks[] = {5, 3};
  for (int layer = 0; layer < depth; ++layer) {
    system.failure_injector().ArmOnTrigger(kTriggerRecoveryStart, FailureType::kHardware,
                                           {cascade_ranks[layer]},
                                           Seconds(10 + 10 * layer));
  }
  const int64_t target = 8;
  GEMINI_ASSIGN_OR_RETURN(const TrainingReport report,
                          system.TrainUntil(target, /*sim_deadline=*/Hours(6)));

  Measurement measurement;
  measurement.records = static_cast<int>(report.recoveries.size());
  measurement.preempted = system.metrics().counter_value("system.recoveries.preempted");
  measurement.deduplicated =
      system.metrics().counter_value("system.failure_reports.deduplicated");
  measurement.reported = system.metrics().counter_value("agent.failures_reported");
  if (!report.recoveries.empty()) {
    measurement.source = report.recoveries.back().source;
    for (const RecoveryRecord& recovery : report.recoveries) {
      measurement.downtime = std::max(measurement.downtime, recovery.downtime);
    }
  }
  measurement.degraded_seconds =
      system.metrics().gauge_value("system.redundancy.degraded_seconds");

  // Bit-identical restored state versus an uninterrupted reference run.
  ShardedTrainer reference(config.model, config.num_machines, config.payload_elements,
                           config.seed);
  for (int64_t i = 0; i < report.iterations_completed; ++i) {
    reference.Step();
  }
  measurement.state_ok = report.iterations_completed == target;
  for (int rank = 0; rank < config.num_machines && measurement.state_ok; ++rank) {
    measurement.state_ok = system.trainer().shard(rank) == reference.shard(rank);
  }
  return measurement;
}

}  // namespace

int main() {
  bench::BenchReporter reporter(
      "ext_cascade",
      "Extension: recovery outcome vs. overlapping-failure depth (GPT-2 100B, 8x p4d)",
      "recovery hardening; extends paper Section 6.2 / Figure 14 to cascading failures");

  TablePrinter table({"Cascade depth", "Records", "Preempted", "Recovery source",
                      "Downtime (min)", "Degraded (s)", "State bit-identical"});
  bool pass = true;
  for (int depth = 0; depth <= 2; ++depth) {
    const auto measurement = RunDepth(depth);
    if (!measurement.ok()) {
      std::cerr << "depth " << depth << ": " << measurement.status() << "\n";
      return 1;
    }
    table.AddRow({std::to_string(depth), std::to_string(measurement->records),
                  std::to_string(measurement->preempted),
                  std::string(RecoverySourceName(measurement->source)),
                  TablePrinter::Fmt(ToSeconds(measurement->downtime) / 60.0),
                  TablePrinter::Fmt(measurement->degraded_seconds, 1),
                  measurement->state_ok ? "yes" : "NO"});
    const std::string key = "depth_" + std::to_string(depth);
    reporter.Metric(key + ".records", static_cast<double>(measurement->records));
    reporter.Metric(key + ".preempted", static_cast<double>(measurement->preempted));
    reporter.Metric(key + ".downtime_minutes", ToSeconds(measurement->downtime) / 60.0);
    reporter.Metric(key + ".degraded_seconds", measurement->degraded_seconds);
    // Depth d injects d+1 failures; every one must surface as its own
    // record (or an explicit dedup), resolve from CPU memory (each group
    // kept a survivor), and restore bit-identical state.
    pass &= measurement->records == depth + 1;
    pass &= measurement->preempted == depth;
    pass &= measurement->reported ==
            static_cast<int64_t>(measurement->records) + measurement->deduplicated;
    pass &= measurement->source == RecoveryStepKind::kFetchFromPeers;
    pass &= measurement->state_ok;
    pass &= measurement->degraded_seconds > 0.0;
  }
  reporter.Table(table);
  reporter.ShapeCheck(pass,
                      "every overlapping failure is absorbed into the active recovery case\n"
                      "and emitted as its own RecoveryRecord (zero dropped reports); with one\n"
                      "survivor per placement group the merged case still resolves from remote\n"
                      "CPU memory with bit-identical state, and background re-protection closes\n"
                      "the redundancy gap after each replacement.");
  return reporter.Finish();
}
