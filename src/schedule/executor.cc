#include "src/schedule/executor.h"

#include <algorithm>
#include <limits>

namespace gemini {

std::string_view InterleaveSchemeName(InterleaveScheme scheme) {
  switch (scheme) {
    case InterleaveScheme::kNone:
      return "baseline";
    case InterleaveScheme::kBlocking:
      return "blocking";
    case InterleaveScheme::kNaiveInterleave:
      return "naive_interleave";
    case InterleaveScheme::kInterleaveNoPipeline:
      return "interleave_no_pipeline";
    case InterleaveScheme::kPipelined:
      return "gemini_pipelined";
  }
  return "unknown";
}

namespace {

Bytes CheckpointBytes(const ExecutorParams& params) {
  return params.checkpoint_bytes_override > 0
             ? params.checkpoint_bytes_override
             : params.timeline.model.CheckpointBytesPerMachine(params.timeline.num_machines);
}

// One machine's checkpoint receive path: chunks queue FIFO on the NIC behind
// training traffic, and chunk k cannot start receiving until the GPU->CPU
// copy of chunk k - p freed its sub-buffer. Request times may be shifted
// rigidly by the caller's accumulated interference (`shift`).
class ChunkPipeline {
 public:
  ChunkPipeline(const TimelineParams& timeline, std::vector<ChunkAssignment> chunks,
                std::vector<TimeNs> requests, int pipeline_depth)
      : chunks_(std::move(chunks)),
        requests_(std::move(requests)),
        copy_done_(chunks_.size(), 0),
        pipeline_depth_(pipeline_depth),
        copy_bandwidth_(timeline.instance.gpu_cpu_copy_bandwidth),
        ckpt_bandwidth_(timeline.instance.network_bandwidth),
        alpha_(timeline.comm_alpha) {}

  // Receives queued chunks whose request precedes a training op issued at
  // `training_issue` (NIC FIFO by request arrival).
  void Drain(TimeNs training_issue, TimeNs shift = 0) {
    while (next_chunk_ < chunks_.size() && ChunkReady(next_chunk_, shift) < training_issue) {
      ReceiveChunk(next_chunk_, shift);
      ++next_chunk_;
    }
  }
  void DrainAll(TimeNs shift = 0) { Drain(std::numeric_limits<TimeNs>::max(), shift); }

  // Queues a training transfer issued at `issue` behind any earlier chunks;
  // returns its end.
  TimeNs PushTraining(TimeNs issue, TimeNs duration, TimeNs shift = 0) {
    Drain(issue, shift);
    net_free_ = std::max(net_free_, issue) + duration;
    return net_free_;
  }

  TimeNs last_recv_end() const { return last_recv_end_; }
  TimeNs last_copy_end() const { return last_copy_end_; }

 private:
  TimeNs ChunkReady(size_t k, TimeNs shift) const {
    TimeNs ready = requests_[k] + shift;
    if (pipeline_depth_ > 0 && k >= static_cast<size_t>(pipeline_depth_)) {
      ready = std::max(ready, copy_done_[k - static_cast<size_t>(pipeline_depth_)]);
    }
    return ready;
  }

  void ReceiveChunk(size_t k, TimeNs shift) {
    const Bytes bytes = chunks_[k].bytes;
    const TimeNs start = std::max(net_free_, ChunkReady(k, shift));
    const TimeNs recv_end = start + alpha_ + TransferTime(bytes, ckpt_bandwidth_);
    net_free_ = recv_end;
    last_recv_end_ = recv_end;
    const TimeNs copy_start = std::max(pcie_free_, recv_end);
    const TimeNs copy_end = copy_start + TransferTime(bytes, copy_bandwidth_);
    pcie_free_ = copy_end;
    copy_done_[k] = copy_end;
    last_copy_end_ = std::max(last_copy_end_, copy_end);
  }

  std::vector<ChunkAssignment> chunks_;
  std::vector<TimeNs> requests_;
  std::vector<TimeNs> copy_done_;
  int pipeline_depth_;
  BytesPerSecond copy_bandwidth_;
  BytesPerSecond ckpt_bandwidth_;
  TimeNs alpha_;

  TimeNs net_free_ = 0;
  TimeNs pcie_free_ = 0;
  size_t next_chunk_ = 0;
  TimeNs last_recv_end_ = 0;
  TimeNs last_copy_end_ = 0;
};

// Replays the ZeRO-3 dependency walk (same grouping as BuildZero3Timeline)
// with the training collectives pushed through `pipeline`; returns the end
// of the optimizer update.
TimeNs WalkZero3(const TimelineParams& params, ChunkPipeline& pipeline) {
  const LayerCosts costs = ComputeLayerCosts(params);
  std::vector<int> group_sizes;
  for (int remaining = params.model.num_layers; remaining > 0;) {
    const int size = std::min(remaining, params.comm_group_layers);
    group_sizes.push_back(size);
    remaining -= size;
  }
  const int num_groups = static_cast<int>(group_sizes.size());

  // Forward pass.
  TimeNs compute_free = 0;
  TimeNs next_issue = 0;
  for (int group = 0; group < num_groups; ++group) {
    const int layers = group_sizes[static_cast<size_t>(group)];
    const TimeNs ag_done = pipeline.PushTraining(next_issue, costs.all_gather * layers);
    const TimeNs compute_start = std::max(compute_free, ag_done);
    compute_free = compute_start + costs.forward_compute * layers;
    next_issue = compute_start;
  }
  // Backward pass.
  TimeNs bwd_ag_issue = compute_free;
  TimeNs pending_rs_issue = -1;
  TimeNs last_rs_end = 0;
  int pending_rs_group = -1;
  for (int group = num_groups - 1; group >= 0; --group) {
    const int layers = group_sizes[static_cast<size_t>(group)];
    const TimeNs ag_done = pipeline.PushTraining(bwd_ag_issue, costs.all_gather * layers);
    if (pending_rs_group >= 0) {
      const int rs_layers = group_sizes[static_cast<size_t>(pending_rs_group)];
      last_rs_end = pipeline.PushTraining(pending_rs_issue, costs.reduce_scatter * rs_layers);
    }
    const TimeNs compute_start = std::max(compute_free, ag_done);
    compute_free = compute_start + costs.backward_compute * layers;
    bwd_ag_issue = compute_start;
    pending_rs_issue = compute_free;
    pending_rs_group = group;
  }
  last_rs_end = pipeline.PushTraining(
      pending_rs_issue,
      costs.reduce_scatter * group_sizes[static_cast<size_t>(pending_rs_group)]);

  // Optimizer update; remaining chunks drain during/after it.
  const TimeNs update_start = std::max(compute_free, last_rs_end);
  pipeline.DrainAll();
  return update_start + ComputeUpdateDuration(params);
}

// Partitions the checkpoint into the idle spans of `nominal` (or the
// profiled ones) for params.scheme, runs `walk` over the resulting chunk
// pipeline — it returns the end of the optimizer update — and derives the
// iteration's timing from it.
template <typename Walk>
ExecutionResult Execute(const ExecutorParams& params, const IterationTimeline& nominal,
                        Walk walk) {
  ExecutionResult result;
  result.status = Status::Ok();
  result.baseline_iteration_time = nominal.iteration_time;

  if (params.scheme == InterleaveScheme::kNone) {
    result.iteration_time = nominal.iteration_time;
    result.overhead_fraction = 0.0;
    return result;
  }

  const InstanceSpec& instance = params.timeline.instance;
  const std::vector<IdleSpan>& spans =
      params.profiled_spans.empty() ? nominal.idle_spans : params.profiled_spans;
  const Bytes checkpoint_bytes = CheckpointBytes(params);

  PartitionParams partition_params;
  partition_params.idle_spans = spans;
  partition_params.checkpoint_bytes = checkpoint_bytes;
  partition_params.num_remote_replicas = params.num_replicas - 1;
  partition_params.reserved_buffer = params.reserved_buffer_per_gpu * instance.num_gpus;
  partition_params.bandwidth = instance.network_bandwidth;
  partition_params.alpha = params.timeline.comm_alpha;
  partition_params.gamma = params.gamma;
  // Every scheme but GEMINI's stages chunks through a single buffer; Blocking
  // streams the whole checkpoint up front and Naive places one chunk per span.
  partition_params.num_buffers =
      params.scheme == InterleaveScheme::kPipelined ? params.num_buffers : 1;
  StatusOr<PartitionResult> partition = params.scheme == InterleaveScheme::kNaiveInterleave
                                            ? PartitionOneChunkPerSpan(partition_params)
                                            : PartitionCheckpoint(partition_params);
  if (!partition.ok()) {
    result.status = partition.status();
    return result;
  }
  result.partition = std::move(partition).value();

  // Staging memory demand per GPU (checkpoints are sharded over all GPUs).
  result.required_buffer_per_gpu =
      (result.partition.max_chunk_bytes + instance.num_gpus - 1) / instance.num_gpus;
  if (params.scheme == InterleaveScheme::kNaiveInterleave &&
      result.required_buffer_per_gpu > params.gpu_free_memory_per_gpu) {
    result.status = ResourceExhaustedError(
        "GPU OOM: naive interleave needs " + FormatBytes(result.required_buffer_per_gpu) +
        " per GPU, free " + FormatBytes(params.gpu_free_memory_per_gpu));
    return result;
  }

  // Request time per chunk: its span's profiled start (Blocking: everything
  // at iteration start).
  const bool blocking = params.scheme == InterleaveScheme::kBlocking;
  std::vector<TimeNs> requests;
  requests.reserve(result.partition.chunks.size());
  for (const ChunkAssignment& chunk : result.partition.chunks) {
    requests.push_back(blocking ? 0 : spans.at(static_cast<size_t>(chunk.span_index)).start);
  }

  ChunkPipeline pipeline(params.timeline, result.partition.chunks, std::move(requests),
                         partition_params.num_buffers);
  if (blocking) {
    // Figure 4b: the whole checkpoint transmits before training begins.
    pipeline.DrainAll();
  }
  const TimeNs update_end = walk(pipeline);

  result.checkpoint_network_done = pipeline.last_recv_end();
  // The machine's own local replica copies GPU->CPU on its own PCIe links,
  // overlapped with training; it finishes no earlier than its copy time.
  const TimeNs local_copy_time = TransferTime(checkpoint_bytes, instance.gpu_cpu_copy_bandwidth);
  result.checkpoint_done = std::max(pipeline.last_copy_end(), local_copy_time);
  // Spilled checkpoint traffic prolongs the iteration (Section 5.3).
  result.iteration_time = std::max(update_end, result.checkpoint_network_done);
  result.checkpoint_within_iteration = result.checkpoint_done <= result.iteration_time;
  result.overhead_fraction =
      static_cast<double>(result.iteration_time) /
          static_cast<double>(result.baseline_iteration_time) -
      1.0;
  return result;
}

}  // namespace

ExecutionResult ExecuteIterationWithCheckpoint(const ExecutorParams& params) {
  return Execute(params, BuildZero3Timeline(params.timeline), [&](ChunkPipeline& pipeline) {
    return WalkZero3(params.timeline, pipeline);
  });
}

ExecutionResult ExecuteOnTimeline(const ExecutorParams& params,
                                  const IterationTimeline& timeline) {
  return Execute(params, timeline, [&](ChunkPipeline& pipeline) {
    // Rigid shift: a communication segment delayed by checkpoint traffic
    // delays every later segment (and the update) by the same amount.
    TimeNs shift = 0;
    for (const CommSegment& segment : timeline.comm) {
      const TimeNs issue = segment.start + shift;
      const TimeNs end = pipeline.PushTraining(issue, segment.duration, shift);
      shift = end - segment.end();
    }
    pipeline.DrainAll(shift);
    return timeline.iteration_time + shift;
  });
}

FrequencyDecision ChooseCheckpointFrequency(const ExecutorParams& params, double max_overhead,
                                            int max_interval) {
  const Bytes full = CheckpointBytes(params);
  FrequencyDecision decision;
  for (int interval = 1; interval <= max_interval; ++interval) {
    ExecutorParams attempt = params;
    attempt.checkpoint_bytes_override = (full + interval - 1) / interval;
    decision.interval_iterations = interval;
    decision.execution = ExecuteIterationWithCheckpoint(attempt);
    if (!decision.execution.status.ok()) {
      return decision;  // OOM etc.: surfacing beats looping.
    }
    if (decision.execution.overhead_fraction <= max_overhead &&
        decision.execution.partition.fits_within_idle_time) {
      return decision;
    }
  }
  return decision;
}

}  // namespace gemini
