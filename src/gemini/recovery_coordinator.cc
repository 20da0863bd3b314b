#include "src/gemini/recovery_coordinator.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/gemini/replicator.h"
#include "src/storage/retry_policy.h"

namespace gemini {
namespace {

// Background re-protection: retry cadence after a failed pass, and the cap
// on consecutive failed passes.
constexpr TimeNs kReprotectionRetryDelay = Seconds(5);
constexpr int kReprotectionMaxAttempts = 3;
// Peer-retrieval retry cascade: per-rank attempt cap across all alive
// replica holders, with capped exponential backoff between attempts. Only
// after the cap is exhausted does recovery fall through to the next step.
constexpr RetryPolicy kPeerRetrievalRetry{6, Millis(200), Seconds(5)};

constexpr std::array<RecoverySourceRow, 5> kRecoverySources = {{
    {"local_cpu_memory", "system.recoveries.local_cpu",
     &SystemSnapshot::recoveries_from_local_cpu},
    {"remote_cpu_memory", "system.recoveries.remote_cpu",
     &SystemSnapshot::recoveries_from_remote_cpu},
    {"persistent_storage", "system.recoveries.persistent",
     &SystemSnapshot::recoveries_from_persistent},
    {"gradient_replay", "system.recoveries.replay", &SystemSnapshot::recoveries_from_replay},
    {"peer_recompute", "system.recoveries.recompute",
     &SystemSnapshot::recoveries_from_recompute},
}};

}  // namespace

const RecoverySourceRow& RecoverySourceRowFor(RecoveryStepKind kind) {
  return kRecoverySources[static_cast<size_t>(kind)];
}

std::string_view RecoverySourceName(RecoveryStepKind kind) {
  return RecoverySourceRowFor(kind).name;
}

RecoveryCoordinator::RecoveryCoordinator(PolicyHost& host, const GeminiConfig& config,
                                         Collaborators collaborators, Callbacks callbacks)
    : host_(host),
      config_(config),
      sim_(host.sim()),
      metrics_(host.metrics()),
      tracer_(host.tracer()),
      deps_(std::move(collaborators)),
      callbacks_(std::move(callbacks)) {}

void RecoveryCoordinator::OnFailureDetected(const FailureReport& report) {
  if (!deps_.running) {
    return;
  }
  if (recovering()) {
    // Cascading failure: merge it into the active case instead of dropping
    // it (the pre-hardening behavior silently ignored these).
    AbsorbFailureDuringRecovery(report);
    return;
  }
  // Feed the failure-rate signal the Chameleon selector keys on (pure
  // bookkeeping: no metric or trace output).
  deps_.auditor.NoteFailure(sim_.now());
  active_case_.emplace();
  ActiveRecoveryCase& recovery_case = *active_case_;
  recovery_case.type = report.type;
  recovery_case.reports.push_back(report);
  recovery_case.ranks.insert(report.ranks.begin(), report.ranks.end());
  recovery_case.first_detected_at = report.detected_at;
  recovery_case.serialize_done_at = sim_.now() + deps_.policy.RecoverySerializationTime(host_);
  recovery_case.iteration_at_failure = deps_.trainer.iteration();
  metrics_.counter("system.failures_detected").Increment();
  tracer_.Event("failure_detected", "recovery",
                {TraceAttr::Text("type", std::string(FailureTypeName(report.type))),
                 TraceAttr::Int("num_ranks", static_cast<int64_t>(report.ranks.size())),
                 TraceAttr::Int("iteration", deps_.trainer.iteration())});
  if (config_.flight_recorder_capacity > 0) {
    deps_.flight_recorder.Dump("failure_detected", sim_.now(), &metrics_);
  }
  GEMINI_LOG(kInfo) << "recovery: handling " << FailureTypeName(report.type) << " failure of "
                    << report.ranks.size() << " machine(s)";
  // The root agent keeps scanning during recovery (its handled-set suppresses
  // re-reports of the ranks already in the case) so overlapping failures are
  // detected and absorbed rather than invisible.
  deps_.injector.Fire(kTriggerRecoveryStart);
  StartRecoveryAttempt();
}

void RecoveryCoordinator::AbsorbFailureDuringRecovery(const FailureReport& report) {
  ActiveRecoveryCase& recovery_case = *active_case_;
  const bool new_ranks = std::any_of(report.ranks.begin(), report.ranks.end(),
                                     [&](int rank) { return !recovery_case.ranks.contains(rank); });
  const bool escalates = report.type == FailureType::kHardware &&
                         recovery_case.type == FailureType::kSoftware;
  if (!new_ranks && !escalates) {
    // Same ranks, no escalation: a freshly promoted root re-reporting a
    // failure the case already covers.
    metrics_.counter("system.failure_reports.deduplicated").Increment();
    return;
  }
  deps_.auditor.NoteFailure(sim_.now());
  recovery_case.reports.push_back(report);
  recovery_case.ranks.insert(report.ranks.begin(), report.ranks.end());
  if (report.type == FailureType::kHardware) {
    recovery_case.type = FailureType::kHardware;
    // Survivors re-serialize their replicas against the updated alive set.
    recovery_case.serialize_done_at =
        std::max(recovery_case.serialize_done_at,
                 sim_.now() + deps_.policy.RecoverySerializationTime(host_));
  }
  metrics_.counter("system.recoveries.preempted").Increment();
  tracer_.Event("recovery_preempted", "recovery",
                {TraceAttr::Text("type", std::string(FailureTypeName(report.type))),
                 TraceAttr::Int("num_ranks", static_cast<int64_t>(report.ranks.size()))});
  GEMINI_LOG(kInfo) << "recovery: absorbed overlapping " << FailureTypeName(report.type)
                    << " failure of " << report.ranks.size()
                    << " machine(s); restarting the case analysis";
  StartRecoveryAttempt();
}

void RecoveryCoordinator::StartRecoveryAttempt() {
  ++recovery_epoch_;  // Invalidate every callback of the previous attempt.
  ActiveRecoveryCase& recovery_case = *active_case_;
  if (recovery_case.type == FailureType::kSoftware) {
    // Restart the crashed processes: serialize the in-memory checkpoints so
    // torch.load can read them, then warm up. The policy decides the chain —
    // GEMINI restores everyone from the local replica (Figure 6b) with zero
    // retrieval traffic.
    const uint64_t epoch = recovery_epoch_;
    const TimeNs serialize_wait =
        std::max<TimeNs>(0, recovery_case.serialize_done_at - sim_.now());
    sim_.ScheduleAfter(serialize_wait + config_.restart_warmup, [this, epoch] {
      if (epoch != recovery_epoch_ || !recovering()) {
        return;
      }
      RecoverySituation situation;
      situation.type = FailureType::kSoftware;
      situation.peer_recoverable = true;
      situation.iteration_at_failure = active_case_->iteration_at_failure;
      StartRecoveryPass(deps_.policy.BuildRecoveryPlan(host_, situation), {});
    });
    return;
  }
  // Hardware: replace every rank that is currently dead and not already being
  // replaced; alive machines serialize their replicas meanwhile (the two
  // overlap, Figure 14). Ranks already replaced in an earlier attempt of this
  // case carry over.
  for (const int rank : recovery_case.ranks) {
    if (deps_.cluster.machine(rank).alive() || recovery_case.replacing.contains(rank)) {
      continue;
    }
    recovery_case.replacing.insert(rank);
    ++recovery_case.pending_replacements;
    deps_.cloud.ReplaceMachine(
        rank, [this, rank](Machine& machine) { OnMachineReplaced(rank, machine); });
  }
  MaybeAnalyzeHardwareCase();
}

void RecoveryCoordinator::OnMachineReplaced(int rank, Machine& machine) {
  // Fresh DRAM: rebuild the store's hosting reservations for this rank.
  CpuCheckpointStore& store = *deps_.stores[static_cast<size_t>(rank)];
  store.ResetForMachine(machine);
  const Bytes replica_bytes = config_.model.CheckpointBytesPerMachine(config_.num_machines);
  for (int owner = 0; owner < config_.num_machines; ++owner) {
    const auto& holders = deps_.placement.replica_sets[static_cast<size_t>(owner)];
    if (std::find(holders.begin(), holders.end(), rank) != holders.end()) {
      (void)store.HostOwner(owner, replica_bytes);
    }
  }
  (void)machine.AllocateOnAllGpus(config_.reserved_buffer_per_gpu);
  callbacks_.restart_rank_services(rank);
  if (!active_case_.has_value()) {
    return;  // The case resolved without this machine (bookkeeping only).
  }
  active_case_->replaced.push_back(rank);
  --active_case_->pending_replacements;
  MaybeAnalyzeHardwareCase();
}

void RecoveryCoordinator::MaybeAnalyzeHardwareCase() {
  if (active_case_->type != FailureType::kHardware || active_case_->pending_replacements > 0) {
    return;
  }
  // All machines replaced. Serialization may still be running.
  const uint64_t epoch = recovery_epoch_;
  const TimeNs wait = std::max<TimeNs>(0, active_case_->serialize_done_at - sim_.now());
  sim_.ScheduleAfter(wait, [this, epoch] {
    if (epoch != recovery_epoch_ || !recovering()) {
      return;
    }
    // Case analysis: can every rank's checkpoint be served from CPU memory
    // of machines that survived? The policy turns the answer into its
    // fallback chain (Section 6.2's case 1 / case 2 for GEMINI).
    std::vector<int> replaced = active_case_->replaced;
    std::vector<bool> failed(static_cast<size_t>(config_.num_machines), false);
    for (const int rank : replaced) {
      failed[static_cast<size_t>(rank)] = true;
    }
    RecoverySituation situation;
    situation.type = FailureType::kHardware;
    situation.replaced_ranks = replaced;
    situation.peer_recoverable = deps_.placement.Recoverable(failed);
    situation.iteration_at_failure = active_case_->iteration_at_failure;
    if (!situation.peer_recoverable && deps_.policy.uses_cpu_checkpoints()) {
      GEMINI_LOG(kWarning) << "recovery: an entire placement group was lost; falling back to "
                              "persistent storage";
    }
    StartRecoveryPass(deps_.policy.BuildRecoveryPlan(host_, situation), std::move(replaced));
  });
}

// State of one pass down the policy's fallback chain: the resolution it will
// record (ResumeTraining adds each report's type, ranks and detection time),
// its position in the chain, and the current step's retrieval fan-in.
// A step that falls through hands a fresh pass to the next step and marks
// this one aborted, so its late completions become no-ops.
struct RecoveryCoordinator::RecoveryPass {
  RecoveryRecord record;
  RecoveryPlan plan;
  size_t step_index = 0;
  // Fresh-DRAM ranks of a hardware case (empty for software failures).
  std::vector<int> replaced_ranks;
  // The recovery attempt this pass belongs to (see recovery_epoch_).
  uint64_t epoch = 0;
  // When the current step began.
  TimeNs started = 0;
  std::vector<Checkpoint> fetched;
  int pending = 0;
  bool aborted = false;
};

void RecoveryCoordinator::StartRecoveryPass(RecoveryPlan plan, std::vector<int> replaced_ranks) {
  auto pass = std::make_shared<RecoveryPass>();
  pass->record.iteration_at_failure = active_case_->iteration_at_failure;
  pass->plan = std::move(plan);
  pass->replaced_ranks = std::move(replaced_ranks);
  pass->epoch = recovery_epoch_;
  ExecuteRecoverySteps(pass);
}

void RecoveryCoordinator::ExecuteRecoverySteps(const RecoveryPassPtr& pass) {
  if (pass->step_index >= pass->plan.steps.size()) {
    GEMINI_LOG(kError) << "recovery: the policy's fallback chain is exhausted; "
                          "training cannot resume";
    callbacks_.finish_run();
    return;
  }
  pass->started = sim_.now();
  const RecoveryStepKind kind = pass->plan.steps[pass->step_index].kind;
  pass->record.source = kind;
  switch (kind) {
    case RecoveryStepKind::kRestoreFromLocalCpu:
      RestoreFromLocalCpu(pass);
      break;
    case RecoveryStepKind::kFetchFromPeers:
      RetrieveFromPeers(pass);
      break;
    case RecoveryStepKind::kFetchFromPersistent:
    case RecoveryStepKind::kReplayLoggedGradients:
      RetrieveFromPersistent(pass);
      break;
    case RecoveryStepKind::kRecomputeFromPeers:
      RecomputeFromPeers(pass);
      break;
  }
}

bool RecoveryCoordinator::Live(const RecoveryPass& pass) const {
  return pass.epoch == recovery_epoch_ && recovering() && !pass.aborted;
}

void RecoveryCoordinator::FallThrough(const RecoveryPassPtr& pass) {
  pass->aborted = true;
  auto next = std::make_shared<RecoveryPass>();
  next->record = pass->record;
  next->plan = pass->plan;
  next->step_index = pass->step_index + 1;
  next->replaced_ranks = pass->replaced_ranks;
  next->epoch = pass->epoch;
  ExecuteRecoverySteps(next);
}

bool RecoveryCoordinator::RestoreOrFallThrough(const RecoveryPassPtr& pass,
                                               const std::vector<Checkpoint>& checkpoints) {
  const Status status = deps_.trainer.RestoreAll(checkpoints);
  if (status.ok()) {
    return true;
  }
  GEMINI_LOG(kError) << "recovery from " << RecoverySourceName(pass->record.source)
                     << " failed to restore: " << status;
  FallThrough(pass);
  return false;
}

void RecoveryCoordinator::ResumeAfter(const RecoveryPassPtr& pass, TimeNs stall, TimeNs delay) {
  RecoveryRecord& record = pass->record;
  record.rollback_iteration = deps_.trainer.iteration();
  record.wasted_time =
      (record.iteration_at_failure - record.rollback_iteration) * host_.execution().iteration_time +
      (sim_.now() - pass->started) + stall;
  if (stall + delay == 0) {
    // Resume inside this event, ahead of anything else due at this instant.
    ResumeTraining(record);
    return;
  }
  sim_.ScheduleAfter(stall + delay, [this, pass] {
    if (Live(*pass)) {
      ResumeTraining(pass->record);
    }
  });
}

void RecoveryCoordinator::RestoreFromLocalCpu(const RecoveryPassPtr& pass) {
  std::vector<Checkpoint> checkpoints;
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    const std::optional<Checkpoint> local =
        deps_.stores[static_cast<size_t>(rank)]->LatestVerified(rank);
    if (!local.has_value()) {
      // Failure before the first commit (or a corrupted local replica): fall
      // through to the chain's next stage (the persistent tier for GEMINI).
      FallThrough(pass);
      return;
    }
    // The restarting process loads through the serialized form (the
    // torch.save/torch.load path), so the CRC integrity check guards the
    // bytes actually restored.
    const StatusOr<Checkpoint> loaded = DeserializeCheckpoint(SerializeCheckpoint(*local));
    if (!loaded.ok()) {
      GEMINI_LOG(kError) << "local checkpoint failed integrity check: " << loaded.status();
      FallThrough(pass);
      return;
    }
    checkpoints.push_back(*loaded);
  }
  if (RestoreOrFallThrough(pass, checkpoints)) {
    ResumeAfter(pass, /*stall=*/0, /*delay=*/0);
  }
}

void RecoveryCoordinator::RetrieveFromPeers(const RecoveryPassPtr& pass) {
  pass->pending = static_cast<int>(pass->replaced_ranks.size());
  deps_.injector.Fire(kTriggerRetrievalStart);
  if (pass->replaced_ranks.empty()) {
    FinishPeerRetrieval(pass);
    return;
  }
  for (const int rank : pass->replaced_ranks) {
    // Go through the scheduler so trigger-armed events with zero delay (from
    // the Fire above) land before the first read.
    sim_.ScheduleAfter(0, [this, pass, rank] { TryFetchReplica(pass, rank, /*attempt=*/0); });
  }
}

void RecoveryCoordinator::TryFetchReplica(const RecoveryPassPtr& pass, int rank, int attempt) {
  if (!Live(*pass)) {
    return;
  }
  if (kPeerRetrievalRetry.Exhausted(attempt)) {
    GEMINI_LOG(kWarning) << "recovery: rank " << rank << " exhausted " << attempt
                         << " retrieval attempts; falling back to persistent storage";
    FallThrough(pass);
    return;
  }
  // A failed or CRC-rejected attempt backs off and re-reads, cycling to the
  // next holder.
  auto retry = [this, pass, rank, attempt](const Status& why) {
    metrics_.counter("replicator.retries").Increment();
    tracer_.Event("retrieval_retry", "recovery",
                  {TraceAttr::Int("rank", rank), TraceAttr::Int("attempt", attempt + 1)});
    GEMINI_LOG(kWarning) << "recovery: retrieval attempt " << attempt + 1 << " for rank "
                         << rank << " failed (" << why << "); retrying";
    sim_.ScheduleAfter(kPeerRetrievalRetry.BackoffBefore(attempt + 1),
                       [this, pass, rank, attempt] { TryFetchReplica(pass, rank, attempt + 1); });
  };
  // Re-derive the holder set every attempt: the alive set may have changed
  // since the case analysis. Replaced ranks count as holding nothing (their
  // fresh DRAM is only filled when this pass finishes).
  std::vector<bool> holder_alive(static_cast<size_t>(config_.num_machines), false);
  for (int r = 0; r < config_.num_machines; ++r) {
    holder_alive[static_cast<size_t>(r)] = deps_.cluster.machine(r).alive();
  }
  for (const int r : pass->replaced_ranks) {
    holder_alive[static_cast<size_t>(r)] = false;
  }
  const std::vector<int> holders = deps_.placement.AliveRemoteHolders(rank, holder_alive);
  if (holders.empty()) {
    FallThrough(pass);
    return;
  }
  // Cycle through the holders: m-1 distinct sources first, then another
  // round for transient (flaky-link) errors.
  const int holder = holders[static_cast<size_t>(attempt) % holders.size()];
  std::optional<Checkpoint> replica =
      deps_.stores[static_cast<size_t>(holder)]->LatestVerified(rank);
  if (!replica.has_value()) {
    retry(DataLossError("holder " + std::to_string(holder) + " has no CRC-verified replica"));
    return;
  }
  Fabric::TransferOptions options;  // Full line rate for retrieval.
  deps_.cluster.fabric().Transfer(
      holder, rank, replica->logical_bytes, options,
      [this, pass, retry, replica = std::move(*replica)](Status status) mutable {
        if (!Live(*pass)) {
          return;
        }
        if (!status.ok()) {
          retry(status);
          return;
        }
        if (!replica.IntegrityOk()) {
          retry(DataLossError("fetched replica failed its CRC check"));
          return;
        }
        pass->fetched.push_back(std::move(replica));
        if (--pass->pending == 0) {
          FinishPeerRetrieval(pass);
        }
      });
}

void RecoveryCoordinator::FinishPeerRetrieval(const RecoveryPassPtr& pass) {
  // Install fetched replicas, then restore everyone: survivors from local
  // CPU memory, replacements from the fetched copies (Figure 6c).
  std::vector<Checkpoint> checkpoints;
  std::vector<bool> have(static_cast<size_t>(config_.num_machines), false);
  for (Checkpoint& checkpoint : pass->fetched) {
    (void)deps_.stores[static_cast<size_t>(checkpoint.owner_rank)]->WriteComplete(checkpoint);
    have[static_cast<size_t>(checkpoint.owner_rank)] = true;
    checkpoints.push_back(std::move(checkpoint));
  }
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    if (have[static_cast<size_t>(rank)]) {
      continue;
    }
    const std::optional<Checkpoint> local =
        deps_.stores[static_cast<size_t>(rank)]->LatestVerified(rank);
    if (!local.has_value()) {
      FallThrough(pass);
      return;
    }
    checkpoints.push_back(*local);
  }
  if (!RestoreOrFallThrough(pass, checkpoints)) {
    return;
  }
  tracer_.Span("retrieval", "recovery", pass->started, sim_.now(),
               {TraceAttr::Text("source", std::string(RecoverySourceName(pass->record.source)))});
  ResumeAfter(pass, /*stall=*/0, config_.restart_warmup);
}

void RecoveryCoordinator::RetrieveFromPersistent(const RecoveryPassPtr& pass) {
  const RecoveryStep step = pass->plan.steps[pass->step_index];
  const bool replay = step.kind == RecoveryStepKind::kReplayLoggedGradients;
  const int64_t base = deps_.persistent.LatestCompleteIteration();
  if (base < 0) {
    GEMINI_LOG(kError) << "recovery: no persistent checkpoint exists";
    FallThrough(pass);
    return;
  }
  pass->pending = config_.num_machines;
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    deps_.persistent.Retrieve(rank, base, [this, pass, step, replay](StatusOr<Checkpoint> result) {
      if (!Live(*pass)) {
        return;  // A mid-retrieval failure restarted the case analysis.
      }
      if (!result.ok()) {
        GEMINI_LOG(kError) << "persistent retrieval failed: " << result.status();
        FallThrough(pass);
        return;
      }
      pass->fetched.push_back(std::move(result).value());
      if (--pass->pending > 0 || !RestoreOrFallThrough(pass, pass->fetched)) {
        return;
      }
      if (replay) {
        // Replay the logged gradient stream forward to the failure
        // iteration: the deterministic update reproduces the pre-failure
        // states bit-exactly, so no progress is lost — only the replay stall
        // (a fraction of an iteration per replayed iteration) is paid.
        const int64_t base_iteration = deps_.trainer.iteration();
        const int64_t target = pass->record.iteration_at_failure;
        const Status replayed = deps_.trainer.ReplayTo(target);
        if (!replayed.ok()) {
          GEMINI_LOG(kError) << "gradient replay failed: " << replayed;
          FallThrough(pass);
          return;
        }
        const TimeNs replay_stall = static_cast<TimeNs>(
            static_cast<double>(target - base_iteration) * step.replay_cost_fraction *
            static_cast<double>(deps_.current_iteration_duration));
        tracer_.Span("gradient_replay", "recovery", pass->started, sim_.now() + replay_stall,
                     {TraceAttr::Int("base_iteration", base_iteration),
                      TraceAttr::Int("replayed_iterations", target - base_iteration)});
        ResumeAfter(pass, replay_stall, config_.restart_warmup);
        return;
      }
      // Refill the CPU tier so subsequent failures recover fast again.
      for (const Checkpoint& checkpoint : pass->fetched) {
        for (const int holder :
             deps_.placement.replica_sets[static_cast<size_t>(checkpoint.owner_rank)]) {
          if (deps_.cluster.machine(holder).alive()) {
            (void)deps_.stores[static_cast<size_t>(holder)]->WriteComplete(checkpoint);
          }
        }
      }
      tracer_.Span(
          "retrieval", "recovery", pass->started, sim_.now(),
          {TraceAttr::Text("source", std::string(RecoverySourceName(pass->record.source)))});
      ResumeAfter(pass, /*stall=*/0, config_.restart_warmup);
    });
  }
}

void RecoveryCoordinator::RecomputeFromPeers(const RecoveryPassPtr& pass) {
  const double iterations = pass->plan.steps[pass->step_index].recompute_iterations;
  // No checkpoint fetch at all: surviving peers hold enough redundancy to
  // rebuild the lost shard in place at a fixed iterations-worth of recompute.
  const TimeNs recompute_stall =
      static_cast<TimeNs>(iterations * static_cast<double>(deps_.current_iteration_duration));
  tracer_.Span("peer_recompute", "recovery", pass->started, pass->started + recompute_stall,
               {TraceAttr::Real("recompute_iterations", iterations)});
  ResumeAfter(pass, recompute_stall, config_.restart_warmup);
}

void RecoveryCoordinator::ResumeTraining(RecoveryRecord record) {
  record.training_resumed_at = sim_.now();
  // Clear the process-down marks: every surviving machine in the case is
  // running its restarted process again (moved here from the software path so
  // software->persistent fallbacks also reset health).
  const std::vector<int> case_ranks(active_case_->ranks.begin(), active_case_->ranks.end());
  for (const int rank : case_ranks) {
    Machine& machine = deps_.cluster.machine(rank);
    if (machine.alive() && !machine.process_running()) {
      machine.set_health(MachineHealth::kHealthy);
      deps_.workers[static_cast<size_t>(rank)]->ReportHealthy();
    }
  }
  // Expand the merged case into one RecoveryRecord per absorbed FailureReport:
  // a cascade of k overlapping failures yields k records (none dropped), each
  // with its own type/ranks/detection time but the shared resolution.
  for (const FailureReport& report : active_case_->reports) {
    RecoveryRecord emitted = record;
    emitted.type = report.type;
    emitted.failed_ranks = report.ranks;
    emitted.failure_detected_at = report.detected_at;
    emitted.downtime = emitted.training_resumed_at - report.detected_at;
    GEMINI_LOG(kInfo) << "recovery: resumed training at iteration "
                      << emitted.rollback_iteration << " from "
                      << RecoverySourceName(emitted.source) << " (downtime "
                      << FormatDuration(emitted.downtime) << ", wasted "
                      << FormatDuration(emitted.wasted_time) << ")";
    metrics_.counter("system.recoveries").Increment();
    metrics_.counter(RecoverySourceRowFor(emitted.source).counter).Increment();
    metrics_.histogram("system.recovery.downtime_seconds")
        .Observe(static_cast<double>(emitted.downtime) / 1e9);
    metrics_.histogram("system.recovery.wasted_seconds")
        .Observe(static_cast<double>(emitted.wasted_time) / 1e9);
    // The recovery span covers detection -> resume by construction, so its
    // duration equals the record's downtime; the attrs carry the rest.
    tracer_.Span("recovery", "recovery", emitted.failure_detected_at,
                 emitted.training_resumed_at,
                 {TraceAttr::Text("type", std::string(FailureTypeName(emitted.type))),
                  TraceAttr::Text("source", std::string(RecoverySourceName(emitted.source))),
                  TraceAttr::Int("rollback_iteration", emitted.rollback_iteration),
                  TraceAttr::Int("wasted_time_ns", emitted.wasted_time),
                  TraceAttr::Int("downtime_ns", emitted.downtime)});
    deps_.records.push_back(std::move(emitted));
  }
  tracer_.Event("training_resumed", "recovery",
                {TraceAttr::Int("iteration", record.rollback_iteration)});
  if (config_.flight_recorder_capacity > 0) {
    deps_.flight_recorder.Dump("recovery_complete", sim_.now(), &metrics_);
  }
  if (!active_case_->replaced.empty() && deps_.policy.uses_cpu_checkpoints()) {
    QueueReprotection(active_case_->replaced, active_case_->first_detected_at);
  }
  active_case_.reset();
  if (config_.incremental.enabled) {
    // Recovery rewired store contents (restores, refills, rollbacks); no
    // sealed base can be trusted, so the next block writes full snapshots.
    callbacks_.reset_incremental_bases();
  }
  if (deps_.root_agent != nullptr) {
    deps_.root_agent->ClearHandled(case_ranks);
    deps_.root_agent->SetPaused(false);
  }
  MaybeStartReprotection();
  callbacks_.start_next_iteration();
}

void RecoveryCoordinator::QueueReprotection(const std::vector<int>& targets,
                                            TimeNs degraded_since) {
  degraded_since_ =
      reprotect_targets_.empty() ? degraded_since : std::min(degraded_since_, degraded_since);
  reprotect_targets_.insert(targets.begin(), targets.end());
}

void RecoveryCoordinator::MaybeStartReprotection() {
  if (reprotection_inflight_ || reprotect_targets_.empty() || !deps_.running || recovering()) {
    return;
  }
  reprotection_inflight_ = true;
  const std::vector<int> targets(reprotect_targets_.begin(), reprotect_targets_.end());
  const TimeNs started = sim_.now();
  const TimeNs since = degraded_since_;
  deps_.injector.Fire(kTriggerReprotectionStart);
  ReplicatorConfig replicator_config;
  replicator_config.num_buffers = config_.num_buffers;
  replicator_config.metrics = &metrics_;
  replicator_config.auditor = &deps_.auditor;
  replicator_config.workers = deps_.datapath_workers;
  // Chunks sized by the Algorithm-2 partition: the background traffic uses
  // the same bursts the idle-span schedule was planned around, so it cannot
  // stretch the steady-state iteration time.
  ReprotectReplicas(
      deps_.cluster, deps_.placement, deps_.stores, targets,
      host_.execution().partition.max_chunk_bytes, replicator_config,
      [this, targets, started, since](ReplicationOutcome outcome) {
        reprotection_inflight_ = false;
        if (!outcome.status.ok()) {
          GEMINI_LOG(kWarning) << "re-protection pass failed: " << outcome.status;
          if (!deps_.running) {
            return;
          }
          if (++reprotection_attempts_ < kReprotectionMaxAttempts) {
            sim_.ScheduleAfter(kReprotectionRetryDelay, [this] { MaybeStartReprotection(); });
            return;
          }
        }
        // Success or give-up: either way this window closes now. A give-up
        // leaves the machines degraded until a later failure queues them
        // again, and that pass accounts only its own window.
        reprotection_attempts_ = 0;
        for (const int rank : targets) {
          reprotect_targets_.erase(rank);
        }
        metrics_.gauge("system.redundancy.degraded_seconds")
            .Add(static_cast<double>(sim_.now() - since) / 1e9);
        if (outcome.status.ok()) {
          metrics_.counter("system.reprotections").Increment();
          tracer_.Span("reprotection", "recovery", started, sim_.now(),
                       {TraceAttr::Int("targets", static_cast<int64_t>(targets.size()))});
          GEMINI_LOG(kInfo) << "re-protection: full replica sets restored for "
                            << targets.size() << " replaced machine(s) after "
                            << FormatDuration(sim_.now() - since) << " degraded";
        } else {
          GEMINI_LOG(kWarning) << "re-protection: giving up after " << kReprotectionMaxAttempts
                               << " failed passes; " << targets.size()
                               << " replaced machine(s) stay degraded";
        }
        MaybeStartReprotection();
      });
}

}  // namespace gemini
