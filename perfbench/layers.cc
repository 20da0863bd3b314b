#include "perfbench/layers.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/gemini/replicator.h"
#include "src/kvstore/kv_store.h"
#include "src/obs/auditor.h"
#include "src/obs/metrics.h"
#include "src/placement/placement.h"
#include "src/schedule/executor.h"
#include "src/sim/simulator.h"
#include "src/storage/cpu_store.h"
#include "src/storage/delta.h"
#include "src/storage/persistent_store.h"
#include "src/storage/serializer.h"
#include "src/training/profiler.h"
#include "src/training/timeline.h"
#include "src/training/trainer.h"

namespace perfbench {
namespace {

using gemini::Bytes;
using gemini::Checkpoint;
using gemini::Status;
using gemini::TimeNs;

// Host ceilings below this many bytes per span are repeated inside the span,
// so a 16 KiB shard's copy is not swamped by the clock reads around it.
constexpr size_t kMinCeilingBytesPerSpan = size_t{1} << 20;

// Delta settings the storage replay uses when the workload itself runs full
// snapshots (incremental_sparse's own settings otherwise).
gemini::GeminiConfig::IncrementalCheckpointConfig DeltaSettings(const WorkloadSpec& spec) {
  gemini::GeminiConfig::IncrementalCheckpointConfig settings = spec.config.incremental;
  if (!settings.enabled) {
    settings.chunk_elements = 1024;
    settings.sparse_update_fraction = 0.1;
  }
  return settings;
}

std::unique_ptr<gemini::ShardedTrainer> MakeTrainer(const gemini::GeminiConfig& config,
                                                    double sparse_fraction,
                                                    int chunk_elements) {
  auto trainer = std::make_unique<gemini::ShardedTrainer>(
      config.model, config.num_machines, config.payload_elements, config.seed);
  if (sparse_fraction < 1.0) {
    trainer->SetSparseUpdates(sparse_fraction, static_cast<size_t>(chunk_elements));
  }
  return trainer;
}

// One CPU store per machine, each hosting the owners the placement assigns.
struct StoreSet {
  std::vector<gemini::Machine> machines;
  std::vector<std::unique_ptr<gemini::CpuCheckpointStore>> stores;
};

Status HostReplicas(const gemini::PlacementPlan& placement, Bytes replica_bytes,
                    std::vector<std::unique_ptr<gemini::CpuCheckpointStore>>& stores) {
  for (int owner = 0; owner < placement.num_machines; ++owner) {
    for (const int holder : placement.replica_sets[static_cast<size_t>(owner)]) {
      GEMINI_RETURN_IF_ERROR(
          stores[static_cast<size_t>(holder)]->HostOwner(owner, replica_bytes));
    }
  }
  return Status::Ok();
}

gemini::StatusOr<std::unique_ptr<StoreSet>> MakeStores(const gemini::GeminiConfig& config,
                                                       const gemini::PlacementPlan& placement,
                                                       gemini::MetricsRegistry& metrics,
                                                       const gemini::RedoLogConfig* redo) {
  auto set = std::make_unique<StoreSet>();
  set->machines.reserve(static_cast<size_t>(config.num_machines));
  for (int rank = 0; rank < config.num_machines; ++rank) {
    set->machines.emplace_back(rank, /*incarnation=*/0, config.instance);
  }
  for (int rank = 0; rank < config.num_machines; ++rank) {
    set->stores.push_back(
        std::make_unique<gemini::CpuCheckpointStore>(set->machines[static_cast<size_t>(rank)]));
    set->stores.back()->set_metrics(&metrics);
    if (redo != nullptr) {
      set->stores.back()->ConfigureRedoLog(*redo);
    }
  }
  GEMINI_RETURN_IF_ERROR(HostReplicas(
      placement, config.model.CheckpointBytesPerMachine(config.num_machines), set->stores));
  return set;
}

// Keeps results observable so the compiler cannot drop the timed work.
volatile uint64_t g_sink = 0;

// The ceilings walk num_machines distinct shard-sized buffers, as the stages
// they are the bases of do, so both see the same cache residency.
void ReplayCeilings(const WorkloadSpec& spec, SpanRecorder& recorder) {
  ScopedSpan phase(recorder, "replay.ceiling");
  const size_t bytes = static_cast<size_t>(spec.config.payload_elements) * sizeof(float);
  const auto shards = static_cast<size_t>(spec.config.num_machines);
  const size_t reps = std::max<size_t>(1, kMinCeilingBytesPerSpan / bytes);
  std::vector<uint8_t> src(bytes * shards);
  std::vector<uint8_t> dst(bytes * shards);
  gemini::Rng rng(spec.config.seed ^ 0x6365696cULL);
  for (auto& byte : src) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  const gemini::Crc32UpdateFn crc = gemini::Crc32ActiveKernel();
  size_t next = 0;  // Shard the next copy or hash reads.
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    ScopedSpan span(recorder, "ceiling.memcpy");
    for (size_t r = 0; r < reps; ++r, next = (next + 1) % shards) {
      std::memcpy(dst.data() + next * bytes, src.data() + next * bytes, bytes);
      g_sink = g_sink + dst[next * bytes + r % bytes];
    }
    span.set_work(static_cast<double>(bytes * reps));
  }
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    ScopedSpan span(recorder, "ceiling.crc");
    uint32_t value = 0;
    for (size_t r = 0; r < reps; ++r, next = (next + 1) % shards) {
      value = crc(value, src.data() + next * bytes, bytes);
    }
    g_sink = g_sink + value;
    span.set_work(static_cast<double>(bytes * reps));
  }
}

void ReplaySimulator(SpanRecorder& recorder) {
  ScopedSpan phase(recorder, "replay.sim");
  constexpr int kEventsPerBatch = 10000;
  gemini::Simulator sim;
  int64_t fired = 0;
  for (int batch = 0; batch < kSamplesPerLayer; ++batch) {
    ScopedSpan span(recorder, "sim.batch");
    for (int i = 0; i < kEventsPerBatch; ++i) {
      sim.ScheduleAfter(static_cast<TimeNs>(i % 997), [&fired] { ++fired; });
    }
    while (sim.Step()) {
    }
    span.set_work(kEventsPerBatch);
  }
  g_sink = g_sink + static_cast<uint64_t>(fired);
}

// An idle KV cluster (Raft heartbeats only) and an idle, fully created
// system (KV + agents + root scans), each advanced one simulated minute per
// span; perfbench/run.py scales to per-hour and subtracts the two.
Status ReplayControlPlane(const WorkloadSpec& spec, SpanRecorder& recorder) {
  ScopedSpan phase(recorder, "replay.control_plane");
  const gemini::GeminiConfig& config = spec.config;
  {
    gemini::Simulator sim;
    gemini::FabricConfig fabric;
    fabric.link_bandwidth = config.instance.network_bandwidth;
    gemini::Cluster cluster(sim, config.num_machines, config.instance, fabric);
    std::vector<int> kv_ranks;
    for (int rank = 0; rank < std::min(config.kv_server_count, config.num_machines); ++rank) {
      kv_ranks.push_back(rank);
    }
    gemini::KvStoreCluster kv(
        sim, cluster.fabric(), kv_ranks,
        [&cluster](int rank) { return cluster.machine(rank).alive(); }, config.kvstore,
        config.seed ^ 0x6b76ULL);
    kv.Start();
    sim.RunUntil(gemini::Seconds(10));  // First election.
    for (int i = 0; i < kSamplesPerLayer; ++i) {
      ScopedSpan span(recorder, "kvstore.sim_minute");
      sim.RunUntil(sim.now() + gemini::Minutes(1));
    }
  }
  GEMINI_ASSIGN_OR_RETURN(std::unique_ptr<gemini::GeminiSystem> system,
                          gemini::GeminiSystem::Create(config));
  system->sim().RunUntil(system->sim().now() + gemini::Seconds(10));
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    ScopedSpan span(recorder, "system.sim_minute");
    system->sim().RunUntil(system->sim().now() + gemini::Minutes(1));
  }
  return Status::Ok();
}

// Per-iteration data plane: step, capture every shard, commit it to every
// holder; then CRC-verified reads of the committed replicas.
Status ReplayDataPlane(const WorkloadSpec& spec, const gemini::PlacementPlan& placement,
                       SpanRecorder& recorder) {
  ScopedSpan phase(recorder, "replay.data_plane");
  const gemini::GeminiConfig& config = spec.config;
  gemini::MetricsRegistry metrics;
  GEMINI_ASSIGN_OR_RETURN(std::unique_ptr<StoreSet> set,
                          MakeStores(config, placement, metrics, nullptr));
  std::unique_ptr<gemini::ShardedTrainer> trainer =
      MakeTrainer(config, config.incremental.sparse_update_fraction,
                  config.incremental.chunk_elements);
  const double shard_bytes = static_cast<double>(config.payload_elements) * sizeof(float);
  for (int round = 0; round < kSamplesPerLayer; ++round) {
    {
      ScopedSpan span(recorder, "training.step");
      trainer->Step();
      span.set_work(shard_bytes * config.num_machines);
    }
    for (int owner = 0; owner < config.num_machines; ++owner) {
      std::optional<Checkpoint> snapshot;
      {
        ScopedSpan span(recorder, "storage.capture");
        snapshot = trainer->MakeCheckpoint(owner);
        span.set_work(shard_bytes);
      }
      for (const int holder : placement.replica_sets[static_cast<size_t>(owner)]) {
        ScopedSpan span(recorder, "storage.commit");
        GEMINI_RETURN_IF_ERROR(set->stores[static_cast<size_t>(holder)]->WriteComplete(*snapshot));
      }
    }
  }
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    const int owner = i % config.num_machines;
    const auto& holders = placement.replica_sets[static_cast<size_t>(owner)];
    const int holder = holders[static_cast<size_t>(i / config.num_machines) % holders.size()];
    ScopedSpan span(recorder, "storage.verify");
    if (!set->stores[static_cast<size_t>(holder)]->LatestVerified(owner).has_value()) {
      return gemini::DataLossError("committed replica failed verification");
    }
    span.set_work(shard_bytes);
  }
  return Status::Ok();
}

// Incremental path: delta build against each owner's last sealed base,
// appends to every holder's redo log (compaction folds included), chain
// materialization, the serializer round trip and persistent saves.
Status ReplayDeltaAndPersistent(const WorkloadSpec& spec, const gemini::PlacementPlan& placement,
                                SpanRecorder& recorder) {
  ScopedSpan phase(recorder, "replay.storage_tiers");
  const gemini::GeminiConfig& config = spec.config;
  const auto settings = DeltaSettings(spec);
  gemini::RedoLogConfig redo;
  redo.max_chain_length = settings.max_chain_length;
  redo.max_chain_bytes = settings.max_chain_bytes;
  gemini::MetricsRegistry metrics;
  GEMINI_ASSIGN_OR_RETURN(std::unique_ptr<StoreSet> set,
                          MakeStores(config, placement, metrics, &redo));
  std::unique_ptr<gemini::ShardedTrainer> trainer =
      MakeTrainer(config, settings.sparse_update_fraction, settings.chunk_elements);
  const auto chunk = static_cast<size_t>(settings.chunk_elements);
  trainer->EnableDirtyTracking(chunk);
  std::vector<Checkpoint> bases;
  for (int owner = 0; owner < config.num_machines; ++owner) {
    bases.push_back(trainer->MakeCheckpoint(owner));
    trainer->TakeDirtyChunks(owner);
    for (const int holder : placement.replica_sets[static_cast<size_t>(owner)]) {
      GEMINI_RETURN_IF_ERROR(set->stores[static_cast<size_t>(holder)]->WriteComplete(
          bases[static_cast<size_t>(owner)]));
    }
  }
  // Enough rounds for kSamplesPerLayer builds, and a chain left standing
  // after the last fold for the materialization reads.
  const int rounds = std::max(redo.max_chain_length + 2,
                              (kSamplesPerLayer + config.num_machines - 1) / config.num_machines);
  for (int round = 0; round < rounds; ++round) {
    trainer->Step();
    for (int owner = 0; owner < config.num_machines; ++owner) {
      Checkpoint current = trainer->MakeCheckpoint(owner);
      const std::vector<uint8_t> dirty = trainer->TakeDirtyChunks(owner);
      std::optional<gemini::DeltaCheckpoint> delta;
      {
        ScopedSpan span(recorder, "storage.delta_build");
        GEMINI_ASSIGN_OR_RETURN(delta, gemini::BuildDeltaCheckpoint(
                                           bases[static_cast<size_t>(owner)], current, chunk,
                                           &dirty));
      }
      for (const int holder : placement.replica_sets[static_cast<size_t>(owner)]) {
        ScopedSpan span(recorder, "storage.delta_append");
        GEMINI_RETURN_IF_ERROR(set->stores[static_cast<size_t>(holder)]->WriteDelta(*delta));
      }
      bases[static_cast<size_t>(owner)] = std::move(current);
    }
  }
  const double shard_bytes = static_cast<double>(config.payload_elements) * sizeof(float);
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    const int owner = i % config.num_machines;
    ScopedSpan span(recorder, "storage.materialize");
    if (!set->stores[static_cast<size_t>(owner)]->Latest(owner).has_value()) {
      return gemini::DataLossError("delta chain failed to materialize");
    }
    span.set_work(shard_bytes);
  }

  std::vector<uint8_t> blob;
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    ScopedSpan span(recorder, "storage.serialize");
    blob = gemini::SerializeCheckpoint(bases[static_cast<size_t>(i % config.num_machines)]);
    span.set_work(static_cast<double>(blob.size()));
  }
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    ScopedSpan span(recorder, "storage.deserialize");
    GEMINI_ASSIGN_OR_RETURN(Checkpoint restored, gemini::DeserializeCheckpoint(blob));
    g_sink = g_sink + static_cast<uint64_t>(restored.iteration);
    span.set_work(static_cast<double>(blob.size()));
  }

  gemini::Simulator sim;
  gemini::PersistentStore persistent(sim, config.persistent);
  persistent.set_metrics(&metrics);
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    Checkpoint checkpoint = bases[static_cast<size_t>(i % config.num_machines)];
    checkpoint.iteration = i + 1;
    ScopedSpan span(recorder, "storage.persistent_save");
    Status saved = gemini::InternalError("save never completed");
    persistent.Save(std::move(checkpoint), config.num_machines,
                    [&saved](Status status) { saved = std::move(status); });
    sim.Run();
    GEMINI_RETURN_IF_ERROR(saved);
  }
  return Status::Ok();
}

// Background re-protection of a replaced machine's replicas, to completion.
Status ReplayReprotection(const WorkloadSpec& spec, const gemini::PlacementPlan& placement,
                          Bytes chunk_bytes, SpanRecorder& recorder) {
  ScopedSpan phase(recorder, "replay.reprotect");
  const gemini::GeminiConfig& config = spec.config;
  gemini::Simulator sim;
  gemini::FabricConfig fabric;
  fabric.link_bandwidth = config.instance.network_bandwidth;
  gemini::Cluster cluster(sim, config.num_machines, config.instance, fabric);
  gemini::MetricsRegistry metrics;
  std::vector<std::unique_ptr<gemini::CpuCheckpointStore>> stores;
  for (int rank = 0; rank < config.num_machines; ++rank) {
    stores.push_back(std::make_unique<gemini::CpuCheckpointStore>(cluster.machine(rank)));
    stores.back()->set_metrics(&metrics);
  }
  const Bytes replica_bytes = config.model.CheckpointBytesPerMachine(config.num_machines);
  GEMINI_RETURN_IF_ERROR(HostReplicas(placement, replica_bytes, stores));
  std::unique_ptr<gemini::ShardedTrainer> trainer =
      MakeTrainer(config, config.incremental.sparse_update_fraction,
                  config.incremental.chunk_elements);
  trainer->Step();
  for (int owner = 0; owner < config.num_machines; ++owner) {
    const Checkpoint snapshot = trainer->MakeCheckpoint(owner);
    for (const int holder : placement.replica_sets[static_cast<size_t>(owner)]) {
      GEMINI_RETURN_IF_ERROR(stores[static_cast<size_t>(holder)]->WriteComplete(snapshot));
    }
  }
  std::vector<gemini::CpuCheckpointStore*> pointers;
  for (const auto& store : stores) {
    pointers.push_back(store.get());
  }
  gemini::ReplicatorConfig replicator;
  replicator.num_buffers = config.num_buffers;
  replicator.metrics = &metrics;
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    // The target comes back empty (as a replaced machine would), hosting the
    // same owners.
    const int target = i % config.num_machines;
    gemini::CpuCheckpointStore& store = *stores[static_cast<size_t>(target)];
    for (int owner = 0; owner < config.num_machines; ++owner) {
      const auto& holders = placement.replica_sets[static_cast<size_t>(owner)];
      if (std::find(holders.begin(), holders.end(), target) != holders.end()) {
        store.DropOwner(owner);
        GEMINI_RETURN_IF_ERROR(store.HostOwner(owner, replica_bytes));
      }
    }
    ScopedSpan span(recorder, "replicator.reprotect");
    Status outcome = gemini::InternalError("re-protection never completed");
    gemini::ReprotectReplicas(cluster, placement, pointers, {target}, chunk_bytes, replicator,
                              [&outcome](gemini::ReplicationOutcome result) {
                                outcome = result.status;
                              });
    sim.Run();
    GEMINI_RETURN_IF_ERROR(outcome);
  }
  return Status::Ok();
}

// Set-up layers: placement, timeline profiling and Algorithm 2's frequency
// choice, exactly as GeminiSystem::Initialize calls them; then the auditor
// over the resulting schedule.
gemini::StatusOr<LayerFacts> ReplaySetupAndAudit(const WorkloadSpec& spec,
                                                 gemini::PlacementPlan& placement,
                                                 Bytes& chunk_bytes, SpanRecorder& recorder) {
  ScopedSpan phase(recorder, "replay.setup");
  const gemini::GeminiConfig& config = spec.config;
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    ScopedSpan span(recorder, "placement.build");
    GEMINI_ASSIGN_OR_RETURN(placement,
                            gemini::BuildMixedPlacement(config.num_machines, config.num_replicas));
  }
  gemini::TimelineParams timeline_params;
  timeline_params.model = config.model;
  timeline_params.instance = config.instance;
  timeline_params.num_machines = config.num_machines;
  gemini::ProfilerConfig profiler_config;
  profiler_config.iterations = config.profile_iterations;
  gemini::ProfileResult profile;
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    ScopedSpan span(recorder, "training.profile");
    const gemini::IterationTimeline timeline = gemini::BuildZero3Timeline(timeline_params);
    gemini::Rng profile_rng(config.seed ^ 0x70726fULL);
    profile = gemini::ProfileIdleSpans(timeline, profiler_config, profile_rng);
  }
  gemini::ExecutorParams executor;
  executor.timeline = timeline_params;
  executor.scheme = gemini::InterleaveScheme::kPipelined;
  executor.num_replicas = config.num_replicas;
  executor.reserved_buffer_per_gpu = config.reserved_buffer_per_gpu;
  executor.num_buffers = config.num_buffers;
  executor.gamma = config.gamma;
  executor.profiled_spans = profile.spans;
  gemini::FrequencyDecision decision;
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    ScopedSpan span(recorder, "schedule.frequency");
    decision = gemini::ChooseCheckpointFrequency(executor);
  }
  GEMINI_RETURN_IF_ERROR(decision.execution.status);
  chunk_bytes = decision.execution.partition.max_chunk_bytes;

  gemini::MetricsRegistry metrics;
  gemini::InterferenceAuditor auditor(config.audit, &metrics, nullptr);
  gemini::PartitionParams partition;
  partition.idle_spans = profile.spans;
  partition.bandwidth = config.instance.network_bandwidth;
  partition.alpha = timeline_params.comm_alpha;
  auditor.Rebaseline(profile.spans, decision.execution.partition, partition);
  gemini::Rng jitter(config.seed ^ 0x61756474ULL);
  const gemini::IterationTimeline timeline = gemini::BuildZero3Timeline(timeline_params);
  std::vector<TimeNs> observed(timeline.idle_spans.size());
  for (int i = 0; i < kSamplesPerLayer; ++i) {
    for (size_t s = 0; s < observed.size(); ++s) {
      const double scale =
          std::max(0.0, 1.0 + jitter.Normal(0.0, config.observed_span_jitter_stddev));
      observed[s] = static_cast<TimeNs>(static_cast<double>(timeline.idle_spans[s].length) * scale);
    }
    ScopedSpan span(recorder, "obs.audit");
    auditor.AuditIteration(i, observed, static_cast<TimeNs>(i) * decision.execution.iteration_time);
  }

  LayerFacts facts;
  facts.ckpt_interval_iters = decision.interval_iterations;
  facts.transmission_s = gemini::ToSeconds(decision.execution.checkpoint_network_done);
  return facts;
}

}  // namespace

gemini::StatusOr<LayerFacts> ReplayLayers(const WorkloadSpec& spec, SpanRecorder& recorder) {
  ScopedSpan root(recorder, "replay");
  gemini::PlacementPlan placement;
  Bytes chunk_bytes = 0;
  GEMINI_ASSIGN_OR_RETURN(LayerFacts facts,
                          ReplaySetupAndAudit(spec, placement, chunk_bytes, recorder));
  ReplayCeilings(spec, recorder);
  ReplaySimulator(recorder);
  GEMINI_RETURN_IF_ERROR(ReplayControlPlane(spec, recorder));
  GEMINI_RETURN_IF_ERROR(ReplayDataPlane(spec, placement, recorder));
  GEMINI_RETURN_IF_ERROR(ReplayDeltaAndPersistent(spec, placement, recorder));
  GEMINI_RETURN_IF_ERROR(ReplayReprotection(spec, placement, chunk_bytes, recorder));
  return facts;
}

}  // namespace perfbench
