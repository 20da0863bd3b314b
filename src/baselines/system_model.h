// Analytic checkpointing-system models: Strawman, HighFreq, GEMINI, and the
// Section 8 related work (DeepFreeze, CheckFreq, Check-N-Run).
//
// Encodes the paper's cost accounting:
//  * Equation (1): T_wasted = t_ckpt + 1/(2f) + t_rtvl;
//  * constraint (2): 1/f >= max(t_ckpt, T_iter);
//  * the serialization tax baselines pay on every persistent checkpoint
//    (torch.save blocks training; ~81 s per HighFreq checkpoint);
//  * fixed per-failure overheads (Figure 14): detection, checkpoint
//    serialization at recovery, machine replacement, restart warmup.
//
// Strawman checkpoints every 3 hours (BLOOM's policy); HighFreq saturates
// the persistent store (every ceil(t_ckpt / T_iter) iterations); GEMINI
// checkpoints to CPU memory every iteration.
#ifndef SRC_BASELINES_SYSTEM_MODEL_H_
#define SRC_BASELINES_SYSTEM_MODEL_H_

#include <string>

#include "src/common/units.h"

namespace gemini {

// Everything the models need to know about the training job and storage.
struct CheckpointWorkload {
  TimeNs iteration_time = 0;
  Bytes checkpoint_bytes_per_machine = 0;
  int num_machines = 0;
  int num_replicas = 2;  // GEMINI's m.
  BytesPerSecond persistent_bandwidth = GbpsToBytesPerSecond(20);
  BytesPerSecond serialization_bandwidth = 0.93e9;
  BytesPerSecond nic_bandwidth = GbpsToBytesPerSecond(400);
  TimeNs comm_alpha = Micros(100);

  Bytes total_checkpoint_bytes() const {
    return checkpoint_bytes_per_machine * num_machines;
  }
};

// Per-failure fixed overheads (Figure 14 measurements).
struct RecoveryOverheads {
  TimeNs failure_detection = Seconds(15);
  // Serializing checkpoints with torch.save at recovery (GEMINI: two
  // replicas, 162 s for GPT-2 100B).
  TimeNs checkpoint_serialization = 0;
  // ASG replacement (0 for software failures or with standby machines).
  TimeNs machine_replacement = 0;
  TimeNs restart_warmup = Seconds(260);

  TimeNs total() const {
    return failure_detection + checkpoint_serialization + machine_replacement + restart_warmup;
  }
};

struct SystemModel {
  std::string name;
  // t_ckpt: end-to-end time for one checkpoint to become usable.
  TimeNs checkpoint_time = 0;
  // 1/f.
  TimeNs checkpoint_interval = 0;
  // Training stalled per checkpoint (serialization for the baselines).
  TimeNs training_block_per_checkpoint = 0;
  // t_rtvl for the system's typical recovery path.
  TimeNs retrieval_time = 0;
  RecoveryOverheads overheads;

  // Equation (1).
  TimeNs AverageWastedTime() const {
    return checkpoint_time + checkpoint_interval / 2 + retrieval_time;
  }
  // Wasted time plus fixed overheads: the full cost of one failure.
  TimeNs FailureCost() const { return AverageWastedTime() + overheads.total(); }
  // Steady-state fraction of wall-clock time that is productive training,
  // with `failures_per_day` expected failures.
  double EffectiveTrainingRatio(double failures_per_day) const;

  double checkpoints_per_hour() const {
    return static_cast<double>(kHour) / static_cast<double>(checkpoint_interval);
  }
};

// Strawman: 3-hour persistent checkpoints (BLOOM's schedule).
SystemModel BuildStrawman(const CheckpointWorkload& workload);

// HighFreq: persistent checkpoints as often as the store allows.
SystemModel BuildHighFreq(const CheckpointWorkload& workload);

// GEMINI checkpointing to CPU memory every iteration. `replaced_machines`
// selects the recovery path the retrieval/overhead columns describe:
//   0            -> software failure, local retrieval;
//   1..          -> hardware failure, retrieval from a group peer.
// `gemini_checkpoint_time` comes from the scheduler (planned transmission
// time); pass 0 to use the back-to-back estimate (m-1 copies at line rate).
SystemModel BuildGemini(const CheckpointWorkload& workload, int replaced_machines,
                        TimeNs gemini_checkpoint_time = 0, bool standby_machines = false);

// GEMINI's degraded path when an entire placement group is lost and recovery
// falls back to the remote persistent storage.
SystemModel BuildGeminiPersistentFallback(const CheckpointWorkload& workload);

// ---- Related work (paper Section 8) ----------------------------------------
// Each improves on Strawman/HighFreq along one axis while keeping the remote
// store on the recovery path — which is why none approaches GEMINI's wasted
// time.

// DeepFreeze (Nicolae et al., CCGRID'20): asynchronous serialization + upload
// to remote persistent storage. No per-checkpoint training stall, but the
// frequency is still bottlenecked by the store's bandwidth, and recovery
// still reads terabytes through it.
struct DeepFreezeOptions {
  // Fraction of the serialization that still stalls training (pipelined
  // copy-out; near zero by design).
  double blocking_fraction = 0.05;
};
SystemModel BuildDeepFreeze(const CheckpointWorkload& workload,
                            const DeepFreezeOptions& options = {});

// CheckFreq (Mohan et al., FAST'21): fine-grained snapshots with a
// dynamically tuned frequency that caps checkpoint overhead at a small budget
// (3.5% in their paper). The snapshot itself is cheap (GPU-side copy), but
// persistence and recovery go through the same remote store.
struct CheckFreqOptions {
  // Maximum fraction of training time spent checkpointing.
  double overhead_budget = 0.035;
  // GPU-side snapshot bandwidth (device memory copy of the model states).
  BytesPerSecond snapshot_bandwidth = 100e9;
};
SystemModel BuildCheckFreq(const CheckpointWorkload& workload,
                           const CheckFreqOptions& options = {});

// Check-N-Run (Eisenman et al., NSDI'22): lossy compression shrinks the
// persisted bytes by ~4x, buying frequency at the cost of compression time
// and potential accuracy impact (which GEMINI avoids entirely).
struct CheckNRunOptions {
  // Lossy compression factor on the persisted bytes.
  double compression_ratio = 4.0;
  // Compression throughput (stalls training like serialization does).
  BytesPerSecond compression_bandwidth = 2e9;
};
SystemModel BuildCheckNRun(const CheckpointWorkload& workload,
                           const CheckNRunOptions& options = {});

}  // namespace gemini

#endif  // SRC_BASELINES_SYSTEM_MODEL_H_
