// perfbench_replicate: one benchmark replicate, printed as one JSON line.
//
//   perfbench_replicate untraced --workload W --seed N [--setups K]
//                                [--verify-replay 0|1]
//       GeminiSystem::Create (K times, timed) + TrainUntil on workload W with
//       seed N, no benchmark tracing. Reports host set-up seconds, TrainUntil's
//       wall and process CPU seconds with the host's steal ticks over it, peak
//       RSS, the simulated outcomes, the registry counts, the output checks
//       and the failure schedule it injected.
//   perfbench_replicate layers --workload W --seed N --spans 0|1 [--spans-out F]
//       Replays W's calls into each layer through the layers' public
//       functions (layers.h); with --spans 1 every call is a span, written
//       to F at the end.
//
// perfbench/run.py drives both legs, repeats them and aggregates.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "perfbench/layers.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/common/crc32.h"
#include "src/common/json_writer.h"
#include "src/common/logging.h"
#include "src/gemini/gemini_system.h"
#include "src/training/trainer.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

// CPU time of this (single-threaded) process. Unlike wall time it leaves out
// the time the host hands to other guests or processes.
double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

// Host-wide steal ticks (USER_HZ) from /proc/stat's "cpu" line; -1 if absent.
int64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  int64_t fields[8] = {};  // user nice system idle iowait irq softirq steal
  if (!(stat >> label) || label != "cpu") {
    return -1;
  }
  for (int64_t& field : fields) {
    if (!(stat >> field)) {
      return -1;
    }
  }
  return fields[7];
}

// Registry counters the aggregation and the traced leg's coverage read.
const char* const kCounters[] = {
    "kv.proposals",
    "agent.keepalives",
    "agent.root_scans",
    "cpu_store.commits",
    "cpu_store.delta_commits",
    "compaction.folds",
    "persistent.saves",
    "persistent.delta_saves",
    "system.recoveries",
    "system.recoveries.local_cpu",
    "system.recoveries.remote_cpu",
    "system.recoveries.persistent",
    "system.recoveries.preempted",
    "system.reprotections",
    "replicator.retries",
    "trainer.steps",
    "system.cpu_checkpoint_commits",
    "system.persistent_checkpoints",
    "obs.audits",
};

// Output check: the final shards equal a fresh trainer replayed to the same
// iteration (the recovery invariant, bit for bit).
bool ReplayMatches(gemini::GeminiSystem& system, const gemini::GeminiConfig& config,
                   int64_t iterations) {
  gemini::ShardedTrainer fresh(config.model, config.num_machines, config.payload_elements,
                               config.seed);
  if (config.incremental.sparse_update_fraction < 1.0) {
    fresh.SetSparseUpdates(config.incremental.sparse_update_fraction,
                           static_cast<size_t>(config.incremental.chunk_elements));
  }
  if (!fresh.ReplayTo(iterations).ok() || system.trainer().iteration() != iterations) {
    return false;
  }
  for (int rank = 0; rank < config.num_machines; ++rank) {
    const std::vector<float>& got = system.trainer().shard(rank);
    const std::vector<float>& want = fresh.shard(rank);
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

uint32_t ShardsCrc(gemini::GeminiSystem& system) {
  uint32_t crc = 0;
  for (int rank = 0; rank < system.config().num_machines; ++rank) {
    const std::vector<float>& shard = system.trainer().shard(rank);
    crc = gemini::Crc32Update(crc, shard.data(), shard.size() * sizeof(float));
  }
  return crc;
}

int RunUntraced(const WorkloadSpec& spec, uint64_t seed, int setups, bool verify_replay) {
  gemini::JsonWriter json;
  json.BeginObject();
  json.Key("leg").Value("untraced");
  json.Key("workload").Value(spec.name);
  json.Key("seed").Value(seed);
  json.Key("crc_kernel").Value(gemini::Crc32ImplementationName());
  json.Key("num_machines").Value(spec.config.num_machines);

  // Set-up is timed `setups` times (each system is built from scratch and
  // the last one trains), so its median does not rest on one sample.
  std::vector<double> setup_s;
  gemini::StatusOr<std::unique_ptr<gemini::GeminiSystem>> created =
      gemini::InternalError("no set-up ran");
  for (int i = 0; i < std::max(setups, 1); ++i) {
    created = gemini::InternalError("replaced");  // Frees the previous system first.
    const auto setup_start = Clock::now();
    created = gemini::GeminiSystem::Create(spec.config);
    setup_s.push_back(SecondsSince(setup_start));
    if (!created.ok()) {
      break;
    }
  }
  if (!created.ok()) {
    json.Key("status").Value(created.status().ToString());
    json.EndObject();
    std::printf("%s\n", json.str().c_str());
    return 1;
  }
  gemini::GeminiSystem& system = **created;
  const std::vector<ScheduledFailure> schedule =
      GenerateFailureSchedule(spec, seed, system.placement(), system.root_rank());
  for (const ScheduledFailure& failure : schedule) {
    system.failure_injector().InjectAt(failure.time, failure.type, failure.ranks);
  }

  const int64_t steal_start = StealTicks();
  const double cpu_start = ProcessCpuSeconds();
  const auto train_start = Clock::now();
  const gemini::TimeNs sim_start = system.sim().now();
  gemini::StatusOr<gemini::TrainingReport> report =
      system.TrainUntil(spec.target_iterations, spec.sim_deadline);
  const double train_s = SecondsSince(train_start);
  const double train_cpu_s = ProcessCpuSeconds() - cpu_start;
  const int64_t steal_end = StealTicks();
  const double sim_hours =
      static_cast<double>(system.sim().now() - sim_start) / static_cast<double>(gemini::Hours(1));

  json.Key("status").Value(report.ok() ? std::string("OK") : report.status().ToString());
  json.Key("setup_s").BeginArray();
  for (const double seconds : setup_s) {
    json.Value(seconds);
  }
  json.EndArray();
  json.Key("train_s").Value(train_s);
  json.Key("train_cpu_s").Value(train_cpu_s);
  json.Key("steal_ticks").Value(steal_start < 0 || steal_end < 0 ? int64_t{-1}
                                                                 : steal_end - steal_start);
  json.Key("sim_hours").Value(sim_hours);
  json.Key("peak_rss_mb").Value(PeakRssMb());
  json.Key("schedule");
  WriteSchedule(json, schedule);
  if (!report.ok()) {
    json.EndObject();
    std::printf("%s\n", json.str().c_str());
    return 1;
  }

  bool rollback_ok = true;
  for (const gemini::RecoveryRecord& record : report->recoveries) {
    rollback_ok = rollback_ok && record.rollback_iteration <= record.iteration_at_failure;
  }
  const gemini::SystemSnapshot snapshot = system.Snapshot();

  json.Key("checks").BeginObject();
  json.Key("rollback_ok").Value(rollback_ok);
  if (verify_replay) {
    json.Key("replay_equal").Value(ReplayMatches(system, spec.config,
                                                 report->iterations_completed));
  }
  json.EndObject();

  // Simulated outcomes, deterministic per seed (run.py derives the recovery
  // means from the records below).
  json.Key("sim").BeginObject();
  json.Key("iterations_completed").Value(report->iterations_completed);
  json.Key("ckpt_overhead_pct").Value(100.0 * snapshot.checkpoint_overhead_fraction);
  json.Key("iteration_time_ratio")
      .Value(static_cast<double>(snapshot.iteration_time) /
             static_cast<double>(snapshot.baseline_iteration_time));
  json.Key("effective_ratio").Value(report->effective_training_ratio());
  json.Key("ckpt_interval_iters").Value(snapshot.checkpoint_interval_iterations);
  json.EndObject();

  json.Key("recovery_records").BeginArray();
  for (const gemini::RecoveryRecord& record : report->recoveries) {
    json.BeginObject();
    json.Key("type").Value(gemini::FailureTypeName(record.type));
    json.Key("source").Value(gemini::RecoverySourceName(record.source));
    json.Key("detected_s").Value(gemini::ToSeconds(record.failure_detected_at));
    json.Key("iteration_at_failure").Value(record.iteration_at_failure);
    json.Key("rollback_iteration").Value(record.rollback_iteration);
    json.Key("wasted_s").Value(gemini::ToSeconds(record.wasted_time));
    json.Key("downtime_s").Value(gemini::ToSeconds(record.downtime));
    json.EndObject();
  }
  json.EndArray();

  json.Key("counts").BeginObject();
  for (const char* name : kCounters) {
    json.Key(name).Value(system.metrics().counter_value(name));
  }
  json.Key("obs.trace_records").Value(static_cast<int64_t>(system.tracer().records().size()));
  json.EndObject();
  const std::string registry = system.metrics().ToJson();
  json.Key("registry_crc").Value(static_cast<int64_t>(gemini::Crc32(registry.data(),
                                                                    registry.size())));
  json.Key("shards_crc").Value(static_cast<int64_t>(ShardsCrc(system)));
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int RunLayers(const WorkloadSpec& spec, uint64_t seed, bool spans_on,
              const std::string& spans_out) {
  SpanRecorder recorder(spec.name + "/" + std::to_string(seed), spans_on);
  const auto start = Clock::now();
  gemini::StatusOr<LayerFacts> facts = ReplayLayers(spec, recorder);
  const double wall_s = SecondsSince(start);
  gemini::JsonWriter json;
  json.BeginObject();
  json.Key("leg").Value("layers");
  json.Key("workload").Value(spec.name);
  json.Key("seed").Value(seed);
  json.Key("status").Value(facts.ok() ? std::string("OK") : facts.status().ToString());
  json.Key("wall_s").Value(wall_s);
  if (facts.ok()) {
    json.Key("schedule.ckpt_interval_iters").Value(facts->ckpt_interval_iters);
    json.Key("schedule.transmission_s").Value(facts->transmission_s);
    json.Key("crc_kernel").Value(gemini::Crc32ImplementationName());
    json.Key("spans").Value(static_cast<int64_t>(recorder.spans().size()));
  }
  json.EndObject();
  if (facts.ok() && spans_on && !spans_out.empty()) {
    if (const gemini::Status written = recorder.WriteJsonl(spans_out); !written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::printf("%s\n", json.str().c_str());
  return facts.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  gemini::SetLogLevel(gemini::LogLevel::kError);
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s untraced|layers --workload W --seed N ...\n", argv[0]);
    return 2;
  }
  const std::string leg = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    flags[argv[i]] = argv[i + 1];
  }
  const uint64_t seed = std::stoull(flags.count("--seed") ? flags["--seed"] : "1");
  gemini::StatusOr<perfbench::WorkloadSpec> spec =
      perfbench::MakeWorkload(flags["--workload"], seed);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  if (leg == "untraced") {
    const int setups = std::stoi(flags.count("--setups") ? flags["--setups"] : "1");
    return perfbench::RunUntraced(*spec, seed, setups, flags["--verify-replay"] == "1");
  }
  if (leg == "layers") {
    return perfbench::RunLayers(*spec, seed, flags["--spans"] == "1", flags["--spans-out"]);
  }
  std::fprintf(stderr, "unknown leg '%s'\n", leg.c_str());
  return 2;
}
