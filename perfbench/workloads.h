// Benchmark workloads and the benchmark-owned failure-schedule generator.
//
// Every workload is a full GeminiSystem run (Create + TrainUntil) on 16
// p4d.24xlarge machines training GPT-2 100B with m = 2. The workload seed goes
// into GeminiConfig::seed and into the failure schedule below, so one seed
// always yields the same inputs; the schedule is printed with every result so
// any run can be replayed from its log.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/agent/failure_injector.h"
#include "src/common/json_writer.h"
#include "src/common/status.h"
#include "src/gemini/gemini_system.h"
#include "src/placement/placement.h"

namespace perfbench {

// One failure the benchmark injects through FailureInjector::InjectAt.
// `cause` names where it came from: random "arrival", or one of the four
// scripted Section 6.2 cases ("software", "peer_hardware", "group_loss",
// "root_loss").
struct ScheduledFailure {
  gemini::TimeNs time = 0;
  gemini::FailureType type = gemini::FailureType::kSoftware;
  std::vector<int> ranks;
  std::string cause;
};

// Random arrivals start after the scripted phase on every workload: one that
// lands inside the group loss's persistent recovery is merged into it and
// inherits its ~2900 s of wasted time, which doubled the mean of a third of
// all seeds.
inline constexpr gemini::TimeNs kArrivalsBegin = gemini::Hours(2);

struct WorkloadSpec {
  std::string name;
  gemini::GeminiConfig config;
  int64_t target_iterations = 0;
  // Always positive: every run ends at the latest here (simulated time).
  gemini::TimeNs sim_deadline = 0;
  // Random failure arrivals per machine-day (0 = none); they fall in
  // [kArrivalsBegin, sim_deadline).
  double arrival_rate_per_machine_day = 0.0;
  // Start of the first of the four scripted Section 6.2 cases.
  gemini::TimeNs scripted_start = 0;
};

// steady_dense, failure_storm or incremental_sparse (README.md says why).
gemini::StatusOr<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed);

// Draws the run's failure schedule from `seed`: stratified random arrivals
// over [kArrivalsBegin, sim_deadline) on uniformly chosen machines, 70 %
// software, plus the four scripted Section 6.2 cases, each at a uniformly
// drawn time in its 72 s window after `scripted_start`. Scripted targets
// come from the built system's placement and root: the group loss hits the
// last placement group holding no KV server (losing KV quorum would stall the
// run instead of recovering it), the peer-hardware case hits one machine of
// another such group, and the root loss hits `root_rank`. Sorted by time.
std::vector<ScheduledFailure> GenerateFailureSchedule(const WorkloadSpec& spec, uint64_t seed,
                                                      const gemini::PlacementPlan& placement,
                                                      int root_rank);

// Writes the schedule as a JSON array (times in simulated nanoseconds).
void WriteSchedule(gemini::JsonWriter& json, const std::vector<ScheduledFailure>& schedule);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
