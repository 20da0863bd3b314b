#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>

#include "src/cluster/instance_spec.h"
#include "src/common/rng.h"
#include "src/training/model_config.h"

namespace perfbench {

using gemini::FailureType;
using gemini::Hours;
using gemini::Minutes;
using gemini::TimeNs;

namespace {

gemini::GeminiConfig BaseConfig(uint64_t seed) {
  gemini::GeminiConfig config;
  config.model = gemini::Gpt2_100B();
  config.instance = gemini::P4d24xlarge();
  config.num_machines = 16;
  config.num_replicas = 2;
  config.payload_elements = 262144;  // 1 MiB of real floats per shard.
  config.seed = seed;
  return config;
}

}  // namespace

gemini::StatusOr<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed) {
  WorkloadSpec spec;
  spec.name = name;
  spec.config = BaseConfig(seed);
  if (name == "steady_dense") {
    // Data plane dominated: 1 MiB shards, no random arrivals. The four
    // scripted cases keep every recovery metric defined.
    spec.target_iterations = 200;
    spec.sim_deadline = Hours(8);
    spec.scripted_start = Hours(0.2);
  } else if (name == "failure_storm") {
    // Control plane and recovery dominated: every Section 6.2 case in the
    // first 1.6 h, then random arrivals at the failure_storm example's rate
    // until a fixed 6 h of simulated time (the iteration target is out of
    // reach, so the deadline ends it).
    spec.config.payload_elements = 4096;
    spec.config.kv_server_count = 5;
    spec.config.cloud.num_standby = 2;
    spec.target_iterations = 1000000;
    spec.sim_deadline = Hours(6);
    spec.arrival_rate_per_machine_day = 1.0;
    spec.scripted_start = Hours(0.5);
  } else if (name == "incremental_sparse") {
    // Delta commits, compaction and chain materialization at recovery.
    spec.config.incremental.enabled = true;
    spec.config.incremental.sparse_update_fraction = 0.1;
    spec.config.incremental.chunk_elements = 1024;
    spec.config.persistent_checkpoint_interval = Minutes(10);
    spec.target_iterations = 200;
    spec.sim_deadline = Hours(8);
    spec.scripted_start = Hours(0.2);
  } else {
    return gemini::InvalidArgumentError("unknown workload '" + name + "'");
  }
  return spec;
}

std::vector<ScheduledFailure> GenerateFailureSchedule(const WorkloadSpec& spec, uint64_t seed,
                                                      const gemini::PlacementPlan& placement,
                                                      int root_rank) {
  gemini::Rng rng(seed ^ 0x66736368ULL);
  const int machines = spec.config.num_machines;
  std::vector<ScheduledFailure> schedule;

  // Random arrivals at the configured rate, stratified: the expected count,
  // one arrival uniformly inside each equal slice of [kArrivalsBegin,
  // sim_deadline), with exactly round(0.7 * count) software failures (the
  // failure_storm example's mix) in seeded order. Plain Poisson draws would
  // make the per-seed failure count (and with it every recovery mean) swing
  // by +-50%.
  const auto arrival_span = static_cast<double>(spec.sim_deadline - kArrivalsBegin);
  const auto arrivals = static_cast<int>(std::llround(spec.arrival_rate_per_machine_day * machines *
                                                      arrival_span /
                                                      static_cast<double>(Hours(24))));
  std::vector<char> software(static_cast<size_t>(arrivals), 0);
  const auto software_count = std::llround(0.7 * arrivals);
  std::fill(software.begin(), software.begin() + software_count, 1);
  for (int i = arrivals - 1; i > 0; --i) {
    std::swap(software[static_cast<size_t>(i)],
              software[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
  const double slice = arrival_span / std::max(arrivals, 1);
  for (int i = 0; i < arrivals; ++i) {
    ScheduledFailure failure;
    failure.time = kArrivalsBegin + static_cast<TimeNs>((i + rng.NextDouble()) * slice);
    failure.type = software[static_cast<size_t>(i)] ? FailureType::kSoftware
                                                    : FailureType::kHardware;
    failure.ranks = {static_cast<int>(rng.UniformInt(0, machines - 1))};
    failure.cause = "arrival";
    schedule.push_back(std::move(failure));
  }

  // Placement groups that hold no KV server, last first.
  std::vector<std::vector<int>> safe_groups;
  const int kv_servers = std::min(spec.config.kv_server_count, machines);
  for (auto it = placement.groups.rbegin(); it != placement.groups.rend(); ++it) {
    const bool holds_kv = std::any_of(it->begin(), it->end(),
                                      [kv_servers](int rank) { return rank < kv_servers; });
    if (!holds_kv && std::find(it->begin(), it->end(), root_rank) == it->end()) {
      safe_groups.push_back(*it);
    }
  }
  // The four Section 6.2 cases, each in a 72 s (about one iteration) window
  // 0, 0.3, 0.7 and 1.1 h after scripted_start. The narrow windows keep each
  // seed's recovery costs close to the others'. The group loss comes second:
  // with the default 3-hourly persistent interval it rolls back to
  // iteration 0.
  const auto window_time = [&](double offset_hours) {
    return spec.scripted_start + Hours(offset_hours) +
           static_cast<TimeNs>(rng.NextDouble() * static_cast<double>(Hours(0.02)));
  };
  // Braced initializers evaluate left to right: each time is drawn before
  // its rank.
  schedule.push_back({window_time(0.0), FailureType::kSoftware,
                      {static_cast<int>(rng.UniformInt(0, machines - 1))}, "software"});
  schedule.push_back({window_time(0.3), FailureType::kHardware, safe_groups.at(0), "group_loss"});
  schedule.push_back(
      {window_time(0.7), FailureType::kHardware, {safe_groups.at(1).front()}, "peer_hardware"});
  schedule.push_back({window_time(1.1), FailureType::kHardware, {root_rank}, "root_loss"});
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const ScheduledFailure& a, const ScheduledFailure& b) {
                     return a.time < b.time;
                   });
  return schedule;
}

void WriteSchedule(gemini::JsonWriter& json, const std::vector<ScheduledFailure>& schedule) {
  json.BeginArray();
  for (const ScheduledFailure& failure : schedule) {
    json.BeginObject();
    json.Key("time_ns").Value(static_cast<int64_t>(failure.time));
    json.Key("type").Value(gemini::FailureTypeName(failure.type));
    json.Key("cause").Value(failure.cause);
    json.Key("ranks").BeginArray();
    for (const int rank : failure.ranks) {
      json.Value(rank);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
}

}  // namespace perfbench
