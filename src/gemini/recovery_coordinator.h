// RecoveryCoordinator: GeminiSystem's failure recovery (Section 6.2,
// hardened), from the root agent's FailureReport to resumed training and the
// background re-protection of replaced machines.
//
// The policy's fallback chain decides *where* state comes from; the
// coordinator executes it:
//  * software failure  -> all ranks reload their local CPU replica;
//  * hardware, case 1  -> replaced machines fetch replicas from group peers
//                         (retrying across holders, CRC per attempt);
//  * hardware, case 2  -> a whole group died: everyone rolls back to the
//                         latest complete persistent checkpoint;
//  plus the other policies' chains: persistent base + gradient replay
//  (Checkmate) and in-place recompute from peers (All is Not Lost).
//
// GeminiSystem owns every collaborator and hands them over by reference; the
// coordinator calls back into it only to run training (start the next
// iteration, finish the run), to restart a replaced rank's KV member and
// agents, and to reset the incremental delta bases.
#ifndef SRC_GEMINI_RECOVERY_COORDINATOR_H_
#define SRC_GEMINI_RECOVERY_COORDINATOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "src/gemini/gemini_system.h"

namespace gemini {

// One row per RecoveryStepKind, in enum order: the RecoveryRecord source
// name, the "system.recoveries.*" counter a resume bumps, and the
// SystemSnapshot field that counts it.
struct RecoverySourceRow {
  std::string_view name;
  std::string_view counter;
  int64_t SystemSnapshot::*snapshot_count;
};
const RecoverySourceRow& RecoverySourceRowFor(RecoveryStepKind kind);

class RecoveryCoordinator {
 public:
  // What the coordinator reads and drives; GeminiSystem owns all of it and
  // outlives the coordinator.
  struct Collaborators {
    Cluster& cluster;
    const PlacementPlan& placement;
    std::vector<CpuCheckpointStore*> stores;
    ShardedTrainer& trainer;
    PersistentStore& persistent;
    FailureInjector& injector;
    CloudOperator& cloud;
    InterferenceAuditor& auditor;
    FlightRecorder& flight_recorder;
    ProtectionPolicy& policy;
    std::vector<std::unique_ptr<WorkerAgent>>& workers;
    std::unique_ptr<RootAgent>& root_agent;
    // Host-side CRC workers for re-protection streams (null = inline).
    ThreadPool* datapath_workers;
    // Where each resumed recovery's records go (the run's TrainingReport).
    std::vector<RecoveryRecord>& records;
    // True while TrainUntil drives the run.
    const bool& running;
    // The active policy's duration of the current iteration; prices replay
    // and recompute stalls.
    const TimeNs& current_iteration_duration;
  };
  struct Callbacks {
    std::function<void()> start_next_iteration;
    std::function<void()> finish_run;
    // Restarts the KV member and agents co-located on a replaced rank.
    std::function<void(int rank)> restart_rank_services;
    std::function<void()> reset_incremental_bases;
  };

  RecoveryCoordinator(PolicyHost& host, const GeminiConfig& config,
                      Collaborators collaborators, Callbacks callbacks);

  RecoveryCoordinator(const RecoveryCoordinator&) = delete;
  RecoveryCoordinator& operator=(const RecoveryCoordinator&) = delete;

  bool recovering() const { return active_case_.has_value(); }

  // The root agent's report entry point: opens a recovery case, or merges
  // the report into the one in flight.
  void OnFailureDetected(const FailureReport& report);

 private:
  // One recovery *case* merges every FailureReport that arrives while it is
  // in flight: an overlapping failure escalates the case (hardware supersedes
  // software), extends its rank set, bumps `recovery_epoch_`, and restarts
  // the case analysis against the updated alive set. Every in-flight recovery
  // callback carries the epoch it was scheduled under and no-ops when a
  // preemption made it stale. At resume, one RecoveryRecord is emitted per
  // absorbed report — overlapping failures are never dropped.
  struct ActiveRecoveryCase {
    FailureType type = FailureType::kSoftware;  // Escalates, never de-escalates.
    std::vector<FailureReport> reports;         // Every report merged into the case.
    std::set<int> ranks;                        // Union of all reported ranks.
    std::set<int> replacing;                    // Replacement requested (once per rank).
    std::vector<int> replaced;                  // Fresh-DRAM ranks (replacement done).
    int pending_replacements = 0;
    TimeNs first_detected_at = 0;
    TimeNs serialize_done_at = 0;
    int64_t iteration_at_failure = 0;
  };
  struct RecoveryPass;
  using RecoveryPassPtr = std::shared_ptr<RecoveryPass>;

  void AbsorbFailureDuringRecovery(const FailureReport& report);
  // (Re)starts the case under a fresh epoch: software cases schedule the
  // local restore, hardware cases replace any still-dead ranks first.
  void StartRecoveryAttempt();
  void OnMachineReplaced(int rank, Machine& machine);
  // Once no replacement is pending, schedules the Section 6.2 case analysis
  // after the serialization window.
  void MaybeAnalyzeHardwareCase();
  // Starts a pass down the policy's fallback chain for the active case.
  void StartRecoveryPass(RecoveryPlan plan, std::vector<int> replaced_ranks);
  // Runs the pass's current step. Each step either resumes training
  // (ResumeAfter) or falls through to the next step; only an exhausted chain
  // ends the run.
  void ExecuteRecoverySteps(const RecoveryPassPtr& pass);
  // False once a preemption made the pass stale or it fell through.
  bool Live(const RecoveryPass& pass) const;
  // Aborts the pass's current step and runs the next one.
  void FallThrough(const RecoveryPassPtr& pass);
  // RestoreAll, falling through when the trainer rejects the checkpoints.
  bool RestoreOrFallThrough(const RecoveryPassPtr& pass,
                            const std::vector<Checkpoint>& checkpoints);
  // Records the rollback and wasted time (lost iterations, the step's elapsed
  // time, and `stall`), then resumes training `stall + delay` from now.
  void ResumeAfter(const RecoveryPassPtr& pass, TimeNs stall, TimeNs delay);
  // kRestoreFromLocalCpu: every rank reloads its own CPU replica through the
  // serialized (CRC-guarded) form.
  void RestoreFromLocalCpu(const RecoveryPassPtr& pass);
  // kFetchFromPeers: fetch replacements' checkpoints from alive group peers,
  // retrying across all holders (capped exponential backoff, CRC per
  // attempt).
  void RetrieveFromPeers(const RecoveryPassPtr& pass);
  void TryFetchReplica(const RecoveryPassPtr& pass, int rank, int attempt);
  void FinishPeerRetrieval(const RecoveryPassPtr& pass);
  // kFetchFromPersistent rolls everyone back to the persistent tier;
  // kReplayLoggedGradients then replays the logged gradient stream to the
  // failure iteration (zero rollback).
  void RetrieveFromPersistent(const RecoveryPassPtr& pass);
  // kRecomputeFromPeers: rebuild lost state in place from peer redundancy at
  // a fixed iterations-worth of recompute cost.
  void RecomputeFromPeers(const RecoveryPassPtr& pass);
  // Emits one record per absorbed report, closes the case and restarts
  // training.
  void ResumeTraining(RecoveryRecord record);

  // ---- Re-protection (recovery hardening) ----
  // After a hardware recovery resumes training, replaced machines hold no
  // replicas for the owners they are assigned — the cluster runs with
  // degraded redundancy. A background pass streams the missing replicas back
  // through the Replicator's chunked data plane (chunks sized by the
  // Algorithm-2 partition so the traffic stays inside idle spans) and exports
  // the vulnerability window as system.redundancy.degraded_seconds. A failed
  // pass is retried; after three in a row the window is closed anyway (added
  // to the gauge) and the targets are dropped.
  void QueueReprotection(const std::vector<int>& targets, TimeNs degraded_since);
  void MaybeStartReprotection();

  PolicyHost& host_;
  const GeminiConfig& config_;
  Simulator& sim_;
  MetricsRegistry& metrics_;
  RunTracer& tracer_;
  Collaborators deps_;
  Callbacks callbacks_;

  // The active merged failure case (set while recovering) and the epoch that
  // invalidates stale recovery callbacks after a mid-recovery preemption.
  std::optional<ActiveRecoveryCase> active_case_;
  uint64_t recovery_epoch_ = 0;
  // Replaced machines awaiting the background re-replication pass.
  std::set<int> reprotect_targets_;
  TimeNs degraded_since_ = 0;
  bool reprotection_inflight_ = false;
  int reprotection_attempts_ = 0;
};

}  // namespace gemini

#endif  // SRC_GEMINI_RECOVERY_COORDINATOR_H_
