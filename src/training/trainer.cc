#include "src/training/trainer.h"

#include <algorithm>
#include <cassert>

#include "src/obs/metrics.h"
#include "src/obs/run_tracer.h"

namespace gemini {
namespace {

// The deterministic update, a stand-in for a gradient step that makes
// divergence detectable at single-bit resolution. Each element's delta mixes
// (seed, iteration, rank, element) through a splitmix-style finalizer into
// [-0.5, 0.5); `stream` is the loop-invariant part, StreamKey(seed,
// iteration, rank). The initial states are the deltas of iteration -1; a
// step decays every element by 0.999 and adds its delta.
uint64_t StreamKey(uint64_t seed, int64_t iteration, int rank) {
  return seed ^ (static_cast<uint64_t>(iteration) * 0x9E3779B97F4A7C15ULL) ^
         ((static_cast<uint64_t>(rank) + 1) * 0xBF58476D1CE4E5B9ULL);
}

[[gnu::always_inline]] inline float ElementDelta(uint64_t stream, size_t element) {
  uint64_t x = stream ^ ((static_cast<uint64_t>(element) + 1) * 0x94D049BB133111EBULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<float>(static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5);
}

// Restrict-qualified parameters tell the vectorizer the source and the
// destination do not overlap, so the copy loop needs no runtime alias check.
[[gnu::always_inline]] inline void UpdateInto(uint64_t stream, const float* __restrict in,
                                              float* __restrict out, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    out[i] = in[i] * 0.999f + ElementDelta(stream, i);
  }
}

// out[i] = (in ? in[i] * 0.999f : 0) + delta(i) over [begin, end), where
// `in` is null (initial states), `out` (in place) or a disjoint buffer.
// The element order and the float rounding steps are fixed, and the build
// compiles with -ffp-contract=off, so no ISA may fuse the multiply-add:
// every build computes the same bits.
[[gnu::always_inline]] inline void UpdateRangeBody(uint64_t stream, const float* in, float* out,
                                                   size_t begin, size_t end) {
  if (in == nullptr) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = ElementDelta(stream, i);
    }
  } else if (in == out) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = out[i] * 0.999f + ElementDelta(stream, i);
    }
  } else {
    UpdateInto(stream, in, out, begin, end);
  }
}

using UpdateRangeFn = void (*)(uint64_t, const float*, float*, size_t, size_t);

void UpdateRangeDefault(uint64_t stream, const float* in, float* out, size_t begin, size_t end) {
  UpdateRangeBody(stream, in, out, begin, end);
}

#if defined(__x86_64__) && defined(__GNUC__)
// The same body built for x86-64-v4 (AVX-512), where the vectorizer has
// 64-bit lane multiplies and int64 -> double conversions for the mixer.
__attribute__((target("arch=x86-64-v4"))) void UpdateRangeX86V4(uint64_t stream,
                                                                 const float* in, float* out,
                                                                 size_t begin, size_t end) {
  UpdateRangeBody(stream, in, out, begin, end);
}
#endif

UpdateRangeFn ResolveUpdateRange() {
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("x86-64-v4")) {
    return &UpdateRangeX86V4;
  }
#endif
  return &UpdateRangeDefault;
}

// Chosen once, on first use, thread-safely (magic static). An explicit
// pointer rather than an ifunc (target_clones): an ifunc resolver runs
// before the sanitizer runtimes are up.
UpdateRangeFn ActiveUpdateRange() {
  static const UpdateRangeFn fn = ResolveUpdateRange();
  return fn;
}

// Deterministic sparse-update predicate: whether (iteration, rank, chunk)
// is touched this step. A distinct mix constant keeps it decorrelated from
// the element deltas without a second seed.
bool ChunkTouched(uint64_t seed, int64_t iteration, int rank, size_t chunk, double fraction) {
  uint64_t x = seed ^ 0xD1B54A32D192ED03ULL;
  x ^= static_cast<uint64_t>(iteration) * 0x9E3779B97F4A7C15ULL;
  x ^= (static_cast<uint64_t>(rank) + 1) * 0xBF58476D1CE4E5B9ULL;
  x ^= (static_cast<uint64_t>(chunk) + 1) * 0x94D049BB133111EBULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
}

}  // namespace

ShardedTrainer::ShardedTrainer(const ModelConfig& model, int num_machines, int payload_elements,
                               uint64_t seed)
    : model_(model), num_machines_(num_machines), seed_(seed) {
  assert(num_machines >= 1);
  assert(payload_elements >= 1);
  shards_.resize(static_cast<size_t>(num_machines));
  const UpdateRangeFn update = ActiveUpdateRange();
  for (int rank = 0; rank < num_machines; ++rank) {
    auto shard = std::make_shared<std::vector<float>>(static_cast<size_t>(payload_elements));
    update(StreamKey(seed_, /*iteration=*/-1, rank), nullptr, shard->data(), 0, shard->size());
    shards_[static_cast<size_t>(rank)] = std::move(shard);
  }
}

void ShardedTrainer::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  steps_counter_ = metrics != nullptr ? &metrics->counter("trainer.steps") : nullptr;
  restores_counter_ = metrics != nullptr ? &metrics->counter("trainer.restores") : nullptr;
  rollback_iterations_counter_ =
      metrics != nullptr ? &metrics->counter("trainer.rollback_iterations") : nullptr;
}

void ShardedTrainer::SetSparseUpdates(double fraction, size_t chunk_elements) {
  assert(fraction > 0.0);
  assert(chunk_elements >= 1);
  sparse_fraction_ = fraction;
  sparse_chunk_elements_ = chunk_elements;
}

void ShardedTrainer::EnableDirtyTracking(size_t chunk_elements) {
  assert(chunk_elements >= 1);
  dirty_chunk_elements_ = chunk_elements;
  dirty_.assign(static_cast<size_t>(num_machines_), {});
  for (int rank = 0; rank < num_machines_; ++rank) {
    // Everything starts dirty: no base has seen the initial states yet.
    dirty_[static_cast<size_t>(rank)].assign(dirty_chunk_count(), 1);
  }
}

size_t ShardedTrainer::dirty_chunk_count() const {
  if (dirty_chunk_elements_ == 0 || shards_.empty()) {
    return 0;
  }
  const size_t elements = shards_.front()->size();
  return (elements + dirty_chunk_elements_ - 1) / dirty_chunk_elements_;
}

std::vector<uint8_t> ShardedTrainer::TakeDirtyChunks(int rank) {
  if (!dirty_tracking_enabled()) {
    return {};
  }
  auto& bits = dirty_.at(static_cast<size_t>(rank));
  std::vector<uint8_t> taken = bits;
  std::fill(bits.begin(), bits.end(), 0);
  return taken;
}

void ShardedTrainer::MarkAllDirty(int rank) {
  if (dirty_tracking_enabled()) {
    auto& bits = dirty_.at(static_cast<size_t>(rank));
    std::fill(bits.begin(), bits.end(), 1);
  }
}

void ShardedTrainer::MarkChunkDirty(int rank, size_t chunk) {
  if (dirty_tracking_enabled()) {
    dirty_.at(static_cast<size_t>(rank)).at(chunk) = 1;
  }
}

void ShardedTrainer::UpdateShardsAtCurrentIteration() {
  const UpdateRangeFn update = ActiveUpdateRange();
  for (int rank = 0; rank < num_machines_; ++rank) {
    std::shared_ptr<std::vector<float>>& live = shards_[static_cast<size_t>(rank)];
    // A capture still holds the live buffer: its bytes stay frozen, and this
    // update lands in a fresh buffer instead.
    const bool captured = live.use_count() > 1;
    const uint64_t stream = StreamKey(seed_, iteration_, rank);
    if (sparse_fraction_ >= 1.0) {
      // Dense path: every element is rewritten, so a copy-on-write writes
      // the update straight into the fresh buffer instead of copying the
      // shard first. (Sizing the buffer zero-fills it, but that fill stays
      // in cache and measured cheaper than reserve + push_back's
      // per-element check.)
      std::shared_ptr<std::vector<float>> target =
          captured ? std::make_shared<std::vector<float>>(live->size()) : live;
      update(stream, live->data(), target->data(), 0, target->size());
      live = std::move(target);
      MarkAllDirty(rank);
      continue;
    }
    // Sparse mode: only touched chunks see the update (and its decay) this
    // iteration — the MoE-style workload where most expert shards are
    // frozen per step. A captured shard is copied whole first.
    if (captured) {
      live = std::make_shared<std::vector<float>>(*live);
    }
    std::vector<float>& shard = *live;
    const size_t num_chunks =
        (shard.size() + sparse_chunk_elements_ - 1) / sparse_chunk_elements_;
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      if (!ChunkTouched(seed_, iteration_, rank, chunk, sparse_fraction_)) {
        continue;
      }
      const size_t begin = chunk * sparse_chunk_elements_;
      const size_t end = std::min(shard.size(), begin + sparse_chunk_elements_);
      update(stream, shard.data(), shard.data(), begin, end);
      if (dirty_tracking_enabled()) {
        if (dirty_chunk_elements_ == sparse_chunk_elements_) {
          MarkChunkDirty(rank, chunk);
        } else {
          // Different granularities: mark every tracking chunk the touched
          // element range overlaps (conservative superset).
          for (size_t e = begin; e < end; e += dirty_chunk_elements_) {
            MarkChunkDirty(rank, e / dirty_chunk_elements_);
          }
          MarkChunkDirty(rank, (end - 1) / dirty_chunk_elements_);
        }
      }
    }
  }
}

void ShardedTrainer::Step() {
  UpdateShardsAtCurrentIteration();
  ++iteration_;
  if (steps_counter_ != nullptr) {
    steps_counter_->Increment();
  }
}

const std::vector<float>& ShardedTrainer::shard(int rank) const {
  return *shards_.at(static_cast<size_t>(rank));
}

Checkpoint ShardedTrainer::MakeCheckpoint(int rank) const {
  Checkpoint checkpoint;
  checkpoint.owner_rank = rank;
  checkpoint.iteration = iteration_;
  checkpoint.logical_bytes = checkpoint_bytes_per_machine();
  // The capture is the live buffer itself; the next update copies on write.
  checkpoint.payload =
      PayloadRef(std::shared_ptr<const std::vector<float>>(shards_.at(static_cast<size_t>(rank))));
  checkpoint.StampPayloadCrc();
  return checkpoint;
}

Status ShardedTrainer::RestoreShard(const Checkpoint& checkpoint) {
  if (checkpoint.owner_rank < 0 || checkpoint.owner_rank >= num_machines_) {
    return InvalidArgumentError("checkpoint owner rank out of range");
  }
  std::shared_ptr<std::vector<float>>& live = shards_[static_cast<size_t>(checkpoint.owner_rank)];
  if (checkpoint.payload.size() != live->size()) {
    return InvalidArgumentError("checkpoint payload size mismatch");
  }
  if (live.use_count() > 1) {
    // A capture still holds the live buffer: restore into a fresh one.
    live = std::make_shared<std::vector<float>>(checkpoint.payload.begin(),
                                                checkpoint.payload.end());
  } else {
    live->assign(checkpoint.payload.begin(), checkpoint.payload.end());
  }
  // A restore can land arbitrarily far from any delta base; every chunk is
  // potentially changed until the next full snapshot seals a new base.
  MarkAllDirty(checkpoint.owner_rank);
  return Status::Ok();
}

Status ShardedTrainer::RestoreAll(const std::vector<Checkpoint>& checkpoints) {
  if (static_cast<int>(checkpoints.size()) != num_machines_) {
    return InvalidArgumentError("need exactly one checkpoint per rank");
  }
  std::vector<bool> seen(static_cast<size_t>(num_machines_), false);
  const int64_t iteration = checkpoints.front().iteration;
  for (const Checkpoint& checkpoint : checkpoints) {
    if (checkpoint.iteration != iteration) {
      return FailedPreconditionError("inconsistent checkpoint set: mixed iterations");
    }
    if (checkpoint.owner_rank < 0 || checkpoint.owner_rank >= num_machines_ ||
        seen[static_cast<size_t>(checkpoint.owner_rank)]) {
      return InvalidArgumentError("checkpoint set does not cover each rank exactly once");
    }
    seen[static_cast<size_t>(checkpoint.owner_rank)] = true;
  }
  for (const Checkpoint& checkpoint : checkpoints) {
    GEMINI_RETURN_IF_ERROR(RestoreShard(checkpoint));
  }
  if (restores_counter_ != nullptr) {
    restores_counter_->Increment();
    if (iteration < iteration_) {
      rollback_iterations_counter_->Increment(iteration_ - iteration);
    }
  }
  if (tracer_ != nullptr) {
    tracer_->Event("trainer_restore", "training",
                   {TraceAttr::Int("from_iteration", iteration_),
                    TraceAttr::Int("to_iteration", iteration)});
  }
  iteration_ = iteration;
  return Status::Ok();
}

Status ShardedTrainer::ReplayTo(int64_t target_iteration) {
  if (target_iteration < iteration_) {
    return InvalidArgumentError("replay target is behind the current iteration");
  }
  const int64_t replayed = target_iteration - iteration_;
  while (iteration_ < target_iteration) {
    UpdateShardsAtCurrentIteration();
    ++iteration_;
  }
  if (replayed > 0) {
    if (metrics_ != nullptr) {
      metrics_->counter("trainer.replayed_iterations").Increment(replayed);
    }
    if (tracer_ != nullptr) {
      tracer_->Event("trainer_replay", "training",
                     {TraceAttr::Int("to_iteration", iteration_),
                      TraceAttr::Int("replayed", replayed)});
    }
  }
  return Status::Ok();
}

}  // namespace gemini
