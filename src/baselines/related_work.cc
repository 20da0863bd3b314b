#include "src/baselines/related_work.h"

#include <algorithm>
#include <cmath>

#include "src/policy/cost_model.h"

namespace gemini {

SystemModel BuildDeepFreeze(const CheckpointWorkload& workload,
                            const DeepFreezeOptions& options) {
  SystemModel model;
  model.name = "DeepFreeze";
  const TimeNs serialize =
      TransferTime(workload.checkpoint_bytes_per_machine, workload.serialization_bandwidth);
  const TimeNs upload =
      TransferTime(workload.total_checkpoint_bytes(), workload.persistent_bandwidth);
  // Serialization overlaps training; the end-to-end checkpoint time is still
  // serialize + upload, and one checkpoint must finish before the next.
  model.checkpoint_time = serialize + upload;
  model.checkpoint_interval =
      AlignUpToIterations(model.checkpoint_time, workload.iteration_time);
  model.training_block_per_checkpoint =
      static_cast<TimeNs>(options.blocking_fraction * static_cast<double>(serialize));
  model.retrieval_time =
      TransferTime(workload.total_checkpoint_bytes(), workload.persistent_bandwidth);
  return model;
}

SystemModel BuildCheckFreq(const CheckpointWorkload& workload,
                           const CheckFreqOptions& options) {
  SystemModel model;
  model.name = "CheckFreq";
  const TimeNs snapshot =
      TransferTime(workload.checkpoint_bytes_per_machine, options.snapshot_bandwidth);
  const TimeNs upload =
      TransferTime(workload.total_checkpoint_bytes(), workload.persistent_bandwidth);
  model.checkpoint_time = snapshot + upload;
  // Frequency tuning: fast enough that overhead stays under the budget, but
  // never faster than the store can drain (the paper's own stated limit).
  model.checkpoint_interval = BudgetedInterval(snapshot, options.overhead_budget,
                                               model.checkpoint_time, workload.iteration_time);
  model.training_block_per_checkpoint = snapshot;
  model.retrieval_time =
      TransferTime(workload.total_checkpoint_bytes(), workload.persistent_bandwidth);
  return model;
}

SystemModel BuildCheckNRun(const CheckpointWorkload& workload,
                           const CheckNRunOptions& options) {
  SystemModel model;
  model.name = "Check-N-Run";
  const Bytes compressed_machine = static_cast<Bytes>(
      static_cast<double>(workload.checkpoint_bytes_per_machine) / options.compression_ratio);
  const Bytes compressed_total =
      compressed_machine * workload.num_machines;
  const TimeNs compress =
      TransferTime(workload.checkpoint_bytes_per_machine, options.compression_bandwidth);
  const TimeNs upload = TransferTime(compressed_total, workload.persistent_bandwidth);
  model.checkpoint_time = compress + upload;
  model.checkpoint_interval =
      AlignUpToIterations(model.checkpoint_time, workload.iteration_time);
  model.training_block_per_checkpoint = compress;
  // Recovery reads (and decompresses) the compressed bytes.
  model.retrieval_time = TransferTime(compressed_total, workload.persistent_bandwidth) +
                         TransferTime(workload.checkpoint_bytes_per_machine,
                                      options.compression_bandwidth);
  return model;
}

}  // namespace gemini
