#include "src/gemini/gemini_system.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/gemini/recovery_coordinator.h"

namespace gemini {

Status GeminiConfig::Validate() const {
  if (num_machines < 1) {
    return InvalidArgumentError("need at least one machine");
  }
  if (num_replicas < 1 || num_replicas > num_machines) {
    return InvalidArgumentError("replica count must be in [1, num_machines]");
  }
  if (payload_elements < 1) {
    return InvalidArgumentError("payload_elements must be positive");
  }
  if (profile_iterations < 1) {
    return InvalidArgumentError("profile_iterations must be positive");
  }
  if (num_buffers < 1) {
    return InvalidArgumentError("num_buffers must be positive");
  }
  if (gamma <= 0.0 || gamma > 1.0) {
    return InvalidArgumentError("gamma must be in (0, 1]");
  }
  if (serialization_bandwidth <= 0) {
    return InvalidArgumentError("serialization_bandwidth must be positive");
  }
  if (pipeline_threads < 1) {
    return InvalidArgumentError("pipeline_threads must be positive");
  }
  if (incremental.sparse_update_fraction <= 0.0 || incremental.sparse_update_fraction > 1.0) {
    return InvalidArgumentError("incremental.sparse_update_fraction must be in (0, 1]");
  }
  if (incremental.enabled) {
    if (incremental.chunk_elements < 1) {
      return InvalidArgumentError("incremental.chunk_elements must be positive");
    }
    if (incremental.max_chain_length < 1) {
      return InvalidArgumentError(
          "incremental.max_chain_length must be >= 1: a compaction cap of 0 would let delta "
          "chains grow without bound and recovery replay them forever");
    }
    if (incremental.max_chain_bytes < 0) {
      return InvalidArgumentError("incremental.max_chain_bytes must be non-negative");
    }
  }
  return policy.Validate();
}

GeminiSystem::GeminiSystem(GeminiConfig config)
    : config_(std::move(config)),
      auditor_(config_.audit, &metrics_, &tracer_),
      flight_recorder_(FlightRecorderConfig{config_.flight_recorder_capacity}),
      audit_rng_(config_.seed ^ 0x617564ULL) {
  if (config_.instance.name.empty()) {
    config_.instance = P4d24xlarge();
  }
}

GeminiSystem::~GeminiSystem() = default;

bool GeminiSystem::recovering() const { return recovery_ != nullptr && recovery_->recovering(); }

StatusOr<std::unique_ptr<GeminiSystem>> GeminiSystem::Create(GeminiConfig config) {
  GEMINI_RETURN_IF_ERROR(config.Validate());
  auto system = std::make_unique<GeminiSystem>(std::move(config));
  GEMINI_RETURN_IF_ERROR(system->Initialize());
  return system;
}

Status GeminiSystem::Initialize() {
  if (initialized_) {
    return FailedPreconditionError("GeminiSystem already initialized");
  }
  GEMINI_RETURN_IF_ERROR(config_.Validate());
  policy_ = MakeProtectionPolicy(config_.policy);

  // ---- Cluster and fabric.
  FabricConfig fabric_config;
  fabric_config.link_bandwidth = config_.instance.network_bandwidth;
  cluster_ = std::make_unique<Cluster>(sim_, config_.num_machines, config_.instance,
                                       fabric_config);

  // ---- Placement (Algorithm 1) and CPU checkpoint stores.
  GEMINI_ASSIGN_OR_RETURN(placement_,
                          BuildMixedPlacement(config_.num_machines, config_.num_replicas));
  const Bytes replica_bytes = config_.model.CheckpointBytesPerMachine(config_.num_machines);
  RedoLogConfig redo_config;
  redo_config.max_chain_length = config_.incremental.max_chain_length;
  redo_config.max_chain_bytes = config_.incremental.max_chain_bytes;
  cpu_stores_.clear();
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    cpu_stores_.push_back(std::make_unique<CpuCheckpointStore>(cluster_->machine(rank)));
    cpu_stores_.back()->set_metrics(&metrics_);
    if (config_.incremental.enabled) {
      cpu_stores_.back()->ConfigureRedoLog(redo_config);
    }
  }
  for (int owner = 0; owner < config_.num_machines; ++owner) {
    for (const int holder : placement_.replica_sets[static_cast<size_t>(owner)]) {
      GEMINI_RETURN_IF_ERROR(
          cpu_stores_[static_cast<size_t>(holder)]->HostOwner(owner, replica_bytes));
    }
  }

  // ---- Trainer and persistent tier (seeded with the initial checkpoint).
  trainer_ = std::make_unique<ShardedTrainer>(config_.model, config_.num_machines,
                                              config_.payload_elements, config_.seed);
  trainer_->set_metrics(&metrics_);
  trainer_->set_tracer(&tracer_);
  if (config_.incremental.sparse_update_fraction < 1.0) {
    trainer_->SetSparseUpdates(config_.incremental.sparse_update_fraction,
                               static_cast<size_t>(config_.incremental.chunk_elements));
  }
  if (config_.incremental.enabled) {
    trainer_->EnableDirtyTracking(static_cast<size_t>(config_.incremental.chunk_elements));
  }
  delta_bases_.assign(static_cast<size_t>(config_.num_machines), std::nullopt);
  dirty_accum_.assign(static_cast<size_t>(config_.num_machines),
                      std::vector<uint8_t>(trainer_->dirty_chunk_count(), 0));
  persistent_bases_.assign(static_cast<size_t>(config_.num_machines), std::nullopt);
  if (config_.pipeline_threads > 1 && datapath_pool_ == nullptr) {
    datapath_pool_ = std::make_unique<ThreadPool>(config_.pipeline_threads);
  }
  persistent_ = std::make_unique<PersistentStore>(sim_, config_.persistent);
  persistent_->set_metrics(&metrics_);
  persistent_->set_workers(datapath_pool_.get());
  if (config_.incremental.enabled) {
    persistent_->ConfigureRedoLog(redo_config);
  }
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    Checkpoint seeded = trainer_->MakeCheckpoint(rank);
    if (config_.incremental.enabled) {
      // The seed seals the persistent tier's first delta head; the first
      // interval save can already ship a delta against iteration 0.
      persistent_bases_[static_cast<size_t>(rank)] = seeded;
    }
    persistent_->SeedImmediate(std::move(seeded), config_.num_machines);
  }

  // ---- Distributed KV store on the first few machines.
  std::vector<int> kv_ranks;
  for (int rank = 0; rank < std::min(config_.kv_server_count, config_.num_machines); ++rank) {
    kv_ranks.push_back(rank);
  }
  kvstore_ = std::make_unique<KvStoreCluster>(
      sim_, cluster_->fabric(), kv_ranks,
      [this](int rank) { return cluster_->machine(rank).alive(); }, config_.kvstore,
      config_.seed ^ 0x6b76ULL);
  kvstore_->set_observability(&metrics_, &tracer_);
  kvstore_->Start();

  // ---- Agents: every machine runs a worker agent; the first one to win the
  // root election becomes the root agent (the same path used at failover).
  workers_.clear();
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    workers_.push_back(StartWorkerAgent(rank));
  }

  // ---- Cloud operator and failure injection.
  cloud_ = std::make_unique<CloudOperator>(sim_, *cluster_, config_.cloud,
                                           config_.seed ^ 0x636cULL);
  cloud_->set_metrics(&metrics_);
  injector_ = std::make_unique<FailureInjector>(sim_, *cluster_, config_.seed ^ 0x666cULL);
  injector_->set_metrics(&metrics_);
  injector_->set_observer([this](const FailureEvent& event) {
    // Synchronous training hangs the moment any participant fails: the
    // in-flight iteration (and its in-flight checkpoint) never completes.
    if (running_ && !recovering()) {
      if (iteration_end_event_.valid()) {
        sim_.Cancel(iteration_end_event_);
        iteration_end_event_ = EventId{};
      }
      if (checkpoint_commit_event_.valid()) {
        sim_.Cancel(checkpoint_commit_event_);
        checkpoint_commit_event_ = EventId{};
      }
    }
    if (event.type == FailureType::kSoftware) {
      for (const int rank : event.ranks) {
        workers_[static_cast<size_t>(rank)]->ReportProcessDown();
      }
    }
  });
  // Chaos hook: bit-flip corruption lands directly in a holder's CPU store,
  // where the CRC verification on the recovery read path must catch it.
  injector_->set_corruption_hook([this](int holder_rank, int owner_rank, size_t bit_index) {
    return cpu_stores_[static_cast<size_t>(holder_rank)]->CorruptLatest(owner_rank, bit_index);
  });
  // Incremental-mode chaos hook: bit-rot inside one link of a holder's delta
  // chain, which the CRC-gated materialization must reject.
  injector_->set_delta_corruption_hook(
      [this](int holder_rank, int owner_rank, size_t chain_index, size_t bit_index) {
        return cpu_stores_[static_cast<size_t>(holder_rank)]->CorruptChainDelta(
            owner_rank, chain_index, bit_index);
      });

  // ---- Recovery (Section 6.2): the root agent's failure reports land here.
  std::vector<CpuCheckpointStore*> stores;
  for (const auto& store : cpu_stores_) {
    stores.push_back(store.get());
  }
  recovery_ = std::make_unique<RecoveryCoordinator>(
      *this, config_,
      RecoveryCoordinator::Collaborators{
          .cluster = *cluster_,
          .placement = placement_,
          .stores = std::move(stores),
          .trainer = *trainer_,
          .persistent = *persistent_,
          .injector = *injector_,
          .cloud = *cloud_,
          .auditor = auditor_,
          .flight_recorder = flight_recorder_,
          .policy = *policy_,
          .workers = workers_,
          .root_agent = root_agent_,
          .datapath_workers = datapath_pool_.get(),
          .records = report_.recoveries,
          .running = running_,
          .current_iteration_duration = current_iteration_duration_},
      RecoveryCoordinator::Callbacks{
          .start_next_iteration = [this] { StartNextIteration(); },
          .finish_run = [this] { FinishRun(); },
          .restart_rank_services = [this](int rank) { RestartServicesOnRank(rank); },
          .reset_incremental_bases = [this] { ResetIncrementalBases(); }});

  // ---- Profile the timeline and plan checkpoint traffic (Sections 5.3/5.4).
  TimelineParams timeline_params;
  timeline_params.model = config_.model;
  timeline_params.instance = config_.instance;
  timeline_params.num_machines = config_.num_machines;
  timeline_ = BuildZero3Timeline(timeline_params);
  ProfilerConfig profiler_config;
  profiler_config.iterations = config_.profile_iterations;
  Rng profile_rng(config_.seed ^ 0x70726fULL);
  profile_ = ProfileIdleSpans(timeline_, profiler_config, profile_rng);

  executor_params_ = ExecutorParams{};
  executor_params_.timeline = timeline_params;
  executor_params_.scheme = InterleaveScheme::kPipelined;
  executor_params_.num_replicas = config_.num_replicas;
  executor_params_.reserved_buffer_per_gpu = config_.reserved_buffer_per_gpu;
  executor_params_.num_buffers = config_.num_buffers;
  executor_params_.gamma = config_.gamma;
  executor_params_.profiled_spans = profile_.spans;
  const FrequencyDecision frequency = ChooseCheckpointFrequency(executor_params_);
  execution_ = frequency.execution;
  checkpoint_interval_iterations_ = frequency.interval_iterations;
  GEMINI_RETURN_IF_ERROR(execution_.status);
  if (checkpoint_interval_iterations_ > 1) {
    GEMINI_LOG(kInfo) << "checkpoint traffic exceeds one iteration's idle time; "
                      << "checkpointing every " << checkpoint_interval_iterations_
                      << " iterations (Section 5.3 amortization)";
  }

  // ---- Continuous interference auditor + flight recorder (observability
  // feedback loop): the tracer feeds the bounded ring through its record
  // sink, and the auditor watches every iteration's spans for drift away
  // from the profile just installed.
  tracer_.set_metrics(&metrics_);
  tracer_.set_max_records(config_.tracer_max_records);
  tracer_.set_record_sink(
      [this](const TraceRecord& record) { flight_recorder_.Record(record); });
  auditor_.Rebaseline(profile_.spans, execution_.partition, AuditPartitionParams());
  auditor_.set_on_drift([this](int64_t iteration) { ReprofileAndRepartition(iteration); });

  // The protection policy goes live against the freshly computed schedule
  // (its Activate publishes the per-policy overhead gauges).
  current_iteration_duration_ = execution_.iteration_time;
  policy_->Activate(*this);

  // Reserve the checkpoint communication buffer on every GPU.
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    GEMINI_RETURN_IF_ERROR(
        cluster_->machine(rank).AllocateOnAllGpus(config_.reserved_buffer_per_gpu));
  }

  report_ = TrainingReport{};
  report_.iteration_time = execution_.iteration_time;
  initialized_ = true;
  return Status::Ok();
}

StatusOr<TrainingReport> GeminiSystem::TrainUntil(int64_t target_iterations,
                                                  TimeNs sim_deadline) {
  if (!initialized_) {
    return FailedPreconditionError("Initialize() first");
  }
  if (running_) {
    return FailedPreconditionError("training already running");
  }
  target_iterations_ = target_iterations;
  running_ = true;
  run_started_at_ = sim_.now();
  last_persistent_checkpoint_at_ = sim_.now();
  StartNextIteration();
  while (running_) {
    if (sim_deadline > 0 && sim_.now() >= sim_deadline) {
      GEMINI_LOG(kWarning) << "training stopped at the simulated-time deadline";
      FinishRun();
      break;
    }
    if (!sim_.Step()) {
      return InternalError("simulation deadlocked: event queue drained while training");
    }
  }
  report_.wall_time = sim_.now() - run_started_at_;
  report_.iterations_completed = trainer_->iteration();
  return report_;
}

void GeminiSystem::FinishRun() {
  running_ = false;
  if (iteration_end_event_.valid()) {
    sim_.Cancel(iteration_end_event_);
    iteration_end_event_ = EventId{};
  }
  if (checkpoint_commit_event_.valid()) {
    sim_.Cancel(checkpoint_commit_event_);
    checkpoint_commit_event_ = EventId{};
  }
}

void GeminiSystem::StartNextIteration() {
  if (!running_ || recovering()) {
    return;
  }
  if (trainer_->iteration() >= target_iterations_) {
    FinishRun();
    return;
  }
  // Checkpoint block structure: the snapshot is captured (staged) at the
  // start of a k-iteration block and its traffic spreads across the block's
  // idle spans, committing during the block's last iteration. k == 1 is the
  // paper's common case: stage and commit within the same iteration.
  const int64_t iteration = trainer_->iteration();
  iteration_started_at_ = sim_.now();
  // Audit this iteration's realized timeline before scheduling anything: a
  // persistent drift may re-profile and re-partition right here, changing the
  // interval and chunk schedule the rest of this function uses. Interference
  // (chunks that no longer fit their shrunken spans) prolongs the iteration
  // by the attributed inflation.
  AuditReport audit;
  if (config_.audit.enabled) {
    audit = auditor_.AuditIteration(iteration, ObservedSpanLengths(), iteration_started_at_);
    if (audit.reprofile_triggered) {
      // The attributed inflation belonged to the schedule the re-profile just
      // replaced; this iteration already runs the fresh one.
      audit.inflation = 0;
    }
  }
  // The policy decides this iteration's capture/commit/stall (after the
  // audit, so it plans against the schedule as it now is). The selector's
  // switch rules also run here, at iteration-start granularity.
  const IterationPlan plan = policy_->PlanIteration(*this, iteration, staged_iteration_ >= 0);
  current_iteration_duration_ = plan.iteration_duration;
  if (plan.stage_snapshot) {
    staged_snapshots_.clear();
    for (int owner = 0; owner < config_.num_machines; ++owner) {
      if (cluster_->machine(owner).alive()) {
        staged_snapshots_.push_back(trainer_->MakeCheckpoint(owner));
        if (config_.incremental.enabled) {
          // Fold the bits marked since the previous capture into the window
          // accumulated since the owner's last sealed base (a discarded block
          // just leaves the accumulator a conservative superset).
          AccumulateDirtyBits(owner);
        }
      }
    }
    staged_iteration_ = iteration;
    staged_at_ = sim_.now();
  }
  if (plan.commit_staged && staged_iteration_ >= 0) {
    const int64_t snapshot_iteration = staged_iteration_;
    checkpoint_commit_event_ =
        sim_.ScheduleAfter(plan.commit_delay, [this, snapshot_iteration] {
          checkpoint_commit_event_ = EventId{};
          OnCheckpointCommit(snapshot_iteration);
        });
  }
  iteration_end_event_ = sim_.ScheduleAfter(
      plan.iteration_duration + plan.added_stall + audit.inflation, [this] {
        iteration_end_event_ = EventId{};
        OnIterationComplete();
      });
}

void GeminiSystem::DiscardStagedBlock() {
  if (checkpoint_commit_event_.valid()) {
    sim_.Cancel(checkpoint_commit_event_);
    checkpoint_commit_event_ = EventId{};
  }
  staged_iteration_ = -1;
  staged_snapshots_.clear();
}

std::vector<TimeNs> GeminiSystem::ObservedSpanLengths() {
  std::vector<TimeNs> observed;
  observed.reserve(timeline_.idle_spans.size());
  for (const IdleSpan& span : timeline_.idle_spans) {
    const double jitter =
        1.0 + audit_rng_.Normal(0.0, config_.observed_span_jitter_stddev);
    const double length =
        static_cast<double>(span.length) * timeline_shift_ * std::max(0.0, jitter);
    observed.push_back(static_cast<TimeNs>(length));
  }
  return observed;
}

PartitionParams GeminiSystem::AuditPartitionParams() const {
  PartitionParams params;
  params.idle_spans = profile_.spans;
  params.bandwidth = config_.instance.network_bandwidth;
  params.alpha = executor_params_.timeline.comm_alpha;
  return params;
}

void GeminiSystem::ReprofileAndRepartition(int64_t iteration) {
  // Online Section 5.4 re-profile against the timeline as it now is: the
  // nominal spans scaled by the persistent shift, observed with the usual
  // profiling jitter.
  IterationTimeline shifted = timeline_;
  for (IdleSpan& span : shifted.idle_spans) {
    span.length = static_cast<TimeNs>(static_cast<double>(span.length) * timeline_shift_);
  }
  ProfilerConfig profiler_config;
  profiler_config.iterations = config_.profile_iterations;
  profile_ = ProfileIdleSpans(shifted, profiler_config, audit_rng_);

  // Algorithm-2 re-partition on the fresh profile; Section 5.3 frequency
  // adaptation may raise the interval when the shrunken spans no longer
  // carry a full checkpoint per iteration.
  executor_params_.profiled_spans = profile_.spans;
  const FrequencyDecision frequency = ChooseCheckpointFrequency(executor_params_);
  if (frequency.execution.status.ok()) {
    execution_ = frequency.execution;
    checkpoint_interval_iterations_ = frequency.interval_iterations;
    report_.iteration_time = execution_.iteration_time;
    // Any in-flight checkpoint block was planned under the old schedule;
    // restart block accounting under the new one.
    staged_iteration_ = -1;
    staged_snapshots_.clear();
  } else {
    GEMINI_LOG(kWarning) << "online re-partition failed (" << frequency.execution.status
                         << "); keeping the previous schedule";
  }
  auditor_.Rebaseline(profile_.spans, execution_.partition, AuditPartitionParams());
  metrics_.counter("system.reprofiles").Increment();
  tracer_.Span("reprofile", "audit", iteration_started_at_, sim_.now(),
               {TraceAttr::Int("iteration", iteration),
                TraceAttr::Int("interval", checkpoint_interval_iterations_),
                TraceAttr::Real("shift", timeline_shift_)});
  GEMINI_LOG(kInfo) << "auditor: timeline drift persisted at iteration " << iteration
                    << "; re-profiled and re-partitioned (interval now "
                    << checkpoint_interval_iterations_ << ")";
}

void GeminiSystem::OnCheckpointCommit(int64_t snapshot_iteration) {
  // Real data plane: the block's staged snapshots land in all holders'
  // double-buffered CPU stores (the transfer timing was already paid by the
  // interleaved schedule that led to this commit instant).
  if (staged_iteration_ != snapshot_iteration) {
    GEMINI_LOG(kWarning) << "stale checkpoint commit dropped (staged " << staged_iteration_
                         << ", committing " << snapshot_iteration << ")";
    return;
  }
  for (const Checkpoint& snapshot : staged_snapshots_) {
    const int owner = snapshot.owner_rank;
    if (!cluster_->machine(owner).alive()) {
      continue;
    }
    std::optional<DeltaCheckpoint> delta;
    if (config_.incremental.enabled) {
      delta = MaybeBuildCommitDelta(snapshot);
    }
    for (const int holder : placement_.replica_sets[static_cast<size_t>(owner)]) {
      if (!cluster_->machine(holder).alive()) {
        continue;
      }
      CpuCheckpointStore& store = *cpu_stores_[static_cast<size_t>(holder)];
      if (delta.has_value() && store.ChainHeadIteration(owner) == delta->base_iteration) {
        // The snapshot rides along so a fold seals onto its buffer.
        const Status status = store.WriteDelta(*delta, &snapshot);
        if (status.ok()) {
          continue;
        }
        // A holder whose chain fell out of sync (e.g. a fresh replacement)
        // gets the full snapshot instead.
        GEMINI_LOG(kWarning) << "delta commit failed on rank " << holder << " (" << status
                             << "); falling back to a full write";
      }
      const Status status = store.WriteComplete(snapshot);
      if (!status.ok()) {
        GEMINI_LOG(kWarning) << "checkpoint commit failed on rank " << holder << ": " << status;
        return;
      }
    }
    if (config_.incremental.enabled) {
      incremental_committed_bytes_ +=
          delta.has_value() ? delta->delta_bytes : snapshot.logical_bytes;
      incremental_full_equivalent_bytes_ += snapshot.logical_bytes;
      delta_bases_[static_cast<size_t>(owner)] = snapshot;
      auto& accum = dirty_accum_[static_cast<size_t>(owner)];
      std::fill(accum.begin(), accum.end(), 0);
    }
  }
  ++report_.cpu_checkpoints_committed;
  if (config_.publish_checkpoint_watermark) {
    // All per-rank watermark keys plus the block-level key ride ONE batched
    // proposal — a single consensus round per checkpoint block rather than
    // one Raft commit per shard.
    std::vector<KvPutEntry> watermarks;
    watermarks.reserve(staged_snapshots_.size() + 1);
    for (const Checkpoint& snapshot : staged_snapshots_) {
      watermarks.push_back(KvPutEntry{
          "ckpt/watermark/rank/" + std::to_string(snapshot.owner_rank),
          std::to_string(snapshot.iteration)});
    }
    watermarks.push_back(
        KvPutEntry{"ckpt/watermark/block", std::to_string(snapshot_iteration)});
    if (config_.incremental.enabled) {
      // Durable-epoch watermark: the newest iteration fully restorable from
      // the persistent tier — the floor a delta-chain recovery can always
      // fall back to. Rides the same single consensus round.
      watermarks.push_back(KvPutEntry{"ckpt/watermark/durable_epoch",
                                      std::to_string(persistent_->durable_epoch())});
    }
    kvstore_->PutBatch(std::move(watermarks), kNoLease, [](Status status) {
      if (!status.ok()) {
        // Leaderless windows (mid-election) drop the watermark; the next
        // block re-publishes strictly newer values, so nothing is retried.
        GEMINI_LOG(kWarning) << "checkpoint watermark publish failed: " << status;
      }
    });
  }
  metrics_.counter("system.cpu_checkpoint_commits").Increment();
  tracer_.Span("checkpoint_block", "checkpoint", staged_at_, sim_.now(),
               {TraceAttr::Int("iteration", snapshot_iteration)});
  tracer_.Event("checkpoint_commit", "checkpoint",
                {TraceAttr::Int("iteration", snapshot_iteration)});
  policy_->OnCheckpointCommitted(*this, snapshot_iteration);
}

void GeminiSystem::OnIterationComplete() {
  tracer_.Span("iteration", "training", iteration_started_at_, sim_.now(),
               {TraceAttr::Int("iteration", trainer_->iteration())});
  trainer_->Step();
  MaybePersistentCheckpoint();
}

void GeminiSystem::MaybePersistentCheckpoint() {
  const TimeNs interval = policy_->PersistentInterval(*this);
  if (interval <= 0 || sim_.now() - last_persistent_checkpoint_at_ < interval) {
    StartNextIteration();
    return;
  }
  last_persistent_checkpoint_at_ = sim_.now();
  // Serialization blocks training (torch.save); the upload itself is
  // asynchronous through the store's shared bandwidth. Ranks serialize
  // concurrently, so the stall is the largest per-rank serialized size — the
  // full replica, or just the delta bytes in incremental mode.
  const Bytes replica_bytes = config_.model.CheckpointBytesPerMachine(config_.num_machines);
  Bytes max_rank_bytes = 0;
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    if (!cluster_->machine(rank).alive()) {
      continue;
    }
    Checkpoint full = trainer_->MakeCheckpoint(rank);
    std::optional<DeltaCheckpoint> delta;
    if (config_.incremental.enabled) {
      const std::optional<Checkpoint>& base = persistent_bases_[static_cast<size_t>(rank)];
      // Deltas are built against the last *scheduled* state; the store's FIFO
      // preserves arrival order, so each delta lands on the chain head it was
      // sealed against.
      if (base.has_value() && full.iteration > base->iteration &&
          base->payload.size() == full.payload.size() &&
          persistent_->DeltaBaseIteration(rank) >= 0) {
        StatusOr<DeltaCheckpoint> built = BuildDeltaCheckpoint(
            *base, full, static_cast<size_t>(config_.incremental.chunk_elements));
        if (built.ok()) {
          delta = std::move(built).value();
        }
      }
    }
    if (delta.has_value()) {
      max_rank_bytes = std::max(max_rank_bytes, delta->delta_bytes);
      // The capture rides along: the verified head adopts its buffer, which
      // persistent_bases_ pins anyway as the next delta's base.
      persistent_->SaveDelta(
          std::move(*delta), config_.num_machines,
          [this, rank](Status status) {
            if (!status.ok()) {
              GEMINI_LOG(kWarning) << "persistent delta save for rank " << rank
                                   << " failed: " << status;
              // Broken seal: force the next interval back to a full upload.
              persistent_bases_[static_cast<size_t>(rank)] = std::nullopt;
            }
          },
          full);
    } else {
      max_rank_bytes = std::max(max_rank_bytes, replica_bytes);
      persistent_->Save(full, config_.num_machines, [this, rank](Status status) {
        if (!status.ok() && config_.incremental.enabled) {
          persistent_bases_[static_cast<size_t>(rank)] = std::nullopt;
        }
      });
    }
    if (config_.incremental.enabled) {
      persistent_bases_[static_cast<size_t>(rank)] = std::move(full);
    }
  }
  const TimeNs serialize = TransferTime(max_rank_bytes, config_.serialization_bandwidth);
  ++report_.persistent_checkpoints_committed;
  metrics_.counter("system.persistent_checkpoints").Increment();
  tracer_.Span("persistent_serialize", "checkpoint", sim_.now(), sim_.now() + serialize,
               {TraceAttr::Int("iteration", trainer_->iteration())});
  sim_.ScheduleAfter(serialize, [this] { StartNextIteration(); });
}

// ---------------------------------------------------------------------------
// Incremental checkpoints
// ---------------------------------------------------------------------------

void GeminiSystem::AccumulateDirtyBits(int owner_rank) {
  std::vector<uint8_t> taken = trainer_->TakeDirtyChunks(owner_rank);
  auto& accum = dirty_accum_[static_cast<size_t>(owner_rank)];
  if (accum.size() != taken.size()) {
    accum.assign(taken.size(), 1);
    return;
  }
  for (size_t i = 0; i < taken.size(); ++i) {
    accum[i] = static_cast<uint8_t>(accum[i] | taken[i]);
  }
}

std::optional<DeltaCheckpoint> GeminiSystem::MaybeBuildCommitDelta(const Checkpoint& snapshot) {
  const int owner = snapshot.owner_rank;
  const std::optional<Checkpoint>& base = delta_bases_[static_cast<size_t>(owner)];
  if (!base.has_value() || snapshot.iteration <= base->iteration ||
      base->payload.size() != snapshot.payload.size()) {
    return std::nullopt;
  }
  const std::vector<uint8_t>& hint = dirty_accum_[static_cast<size_t>(owner)];
  StatusOr<DeltaCheckpoint> delta = BuildDeltaCheckpoint(
      *base, snapshot, static_cast<size_t>(config_.incremental.chunk_elements),
      hint.empty() ? nullptr : &hint);
  if (!delta.ok()) {
    GEMINI_LOG(kWarning) << "delta build for owner " << owner << " failed (" << delta.status()
                         << "); committing a full snapshot";
    return std::nullopt;
  }
  return std::move(delta).value();
}

void GeminiSystem::ResetIncrementalBases() {
  std::fill(delta_bases_.begin(), delta_bases_.end(), std::nullopt);
  std::fill(persistent_bases_.begin(), persistent_bases_.end(), std::nullopt);
  for (auto& accum : dirty_accum_) {
    std::fill(accum.begin(), accum.end(), 1);
  }
}

double GeminiSystem::incremental_delta_fraction() const {
  if (!config_.incremental.enabled || incremental_full_equivalent_bytes_ <= 0) {
    return 1.0;
  }
  return static_cast<double>(incremental_committed_bytes_) /
         static_cast<double>(incremental_full_equivalent_bytes_);
}

std::unique_ptr<WorkerAgent> GeminiSystem::StartWorkerAgent(int rank) {
  auto worker = std::make_unique<WorkerAgent>(sim_, *cluster_, *kvstore_, rank);
  worker->set_on_promoted_to_root([this, rank] { OnWorkerPromotedToRoot(rank); });
  worker->set_metrics(&metrics_);
  worker->set_tracer(&tracer_);
  worker->Start();
  return worker;
}

void GeminiSystem::RestartServicesOnRank(int rank) {
  for (int i = 0; i < kvstore_->num_nodes(); ++i) {
    if (kvstore_->server_ranks()[static_cast<size_t>(i)] == rank) {
      kvstore_->node(i).ResetAndRestart();
    }
  }
  workers_[static_cast<size_t>(rank)]->Stop();
  workers_[static_cast<size_t>(rank)] = StartWorkerAgent(rank);
}

void GeminiSystem::OnWorkerPromotedToRoot(int rank) {
  if (root_agent_ != nullptr && root_rank_ == rank) {
    return;  // Already the root.
  }
  GEMINI_LOG(kInfo) << "root agent now running on rank " << rank;
  metrics_.counter("system.root_promotions").Increment();
  tracer_.Event("root_promoted", "recovery", {TraceAttr::Int("rank", rank)});
  root_rank_ = rank;
  if (root_agent_ != nullptr) {
    root_agent_->Stop();
  }
  root_agent_ = std::make_unique<RootAgent>(
      sim_, *cluster_, *kvstore_, rank,
      [this](const FailureReport& report) { recovery_->OnFailureDetected(report); });
  root_agent_->set_metrics(&metrics_);
  root_agent_->Start();
}

SystemSnapshot GeminiSystem::Snapshot() const {
  SystemSnapshot snapshot;
  snapshot.placement_strategy = std::string(PlacementStrategyName(placement_.strategy));
  snapshot.num_machines = config_.num_machines;
  snapshot.num_replicas = config_.num_replicas;
  snapshot.num_placement_groups = static_cast<int>(placement_.groups.size());
  snapshot.iteration_time = execution_.iteration_time;
  snapshot.baseline_iteration_time = execution_.baseline_iteration_time;
  snapshot.checkpoint_overhead_fraction = execution_.overhead_fraction;
  snapshot.checkpoint_fits_iteration = execution_.checkpoint_within_iteration;
  snapshot.checkpoint_interval_iterations = checkpoint_interval_iterations_;
  snapshot.profiled_iterations = profile_.iterations_profiled;
  snapshot.profile_max_normalized_stddev = profile_.max_normalized_stddev;
  snapshot.profile_mean_iteration_time = profile_.mean_iteration_time;
  snapshot.iterations_completed = trainer_ != nullptr ? trainer_->iteration() : 0;
  snapshot.cpu_checkpoints_committed = report_.cpu_checkpoints_committed;
  snapshot.persistent_checkpoints_committed = report_.persistent_checkpoints_committed;
  snapshot.recoveries = static_cast<int64_t>(report_.recoveries.size());
  for (const RecoveryRecord& record : report_.recoveries) {
    ++(snapshot.*RecoverySourceRowFor(record.source).snapshot_count);
  }
  snapshot.root_rank = root_rank_;
  snapshot.audits = auditor_.audits();
  snapshot.interference_events = auditor_.total_interference_events();
  snapshot.interference_inflation = auditor_.total_inflation();
  for (const double ewma : auditor_.drift_ewma()) {
    snapshot.max_abs_drift_ewma = std::max(snapshot.max_abs_drift_ewma, std::fabs(ewma));
  }
  snapshot.reprofiles = auditor_.reprofiles();
  snapshot.flight_dumps = flight_recorder_.dump_count();
  snapshot.tracer_dropped_records = tracer_.dropped_records();
  snapshot.delta_commits = metrics_.counter_value("cpu_store.delta_commits");
  snapshot.delta_bytes_saved = metrics_.counter_value("delta.bytes_saved");
  snapshot.compaction_folds = metrics_.counter_value("compaction.folds");
  return snapshot;
}

}  // namespace gemini
