#include "src/storage/delta.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "src/common/crc32.h"

namespace gemini {
namespace {

// Prorates the shard's modeled size by the fraction of real elements moved,
// so delta timing/bandwidth charges scale with the dirty fraction exactly
// like the real payload does.
Bytes ProrateBytes(Bytes logical_bytes, size_t moved_elements, size_t payload_elements) {
  if (payload_elements == 0) {
    return 0;
  }
  return static_cast<Bytes>(static_cast<double>(logical_bytes) *
                            (static_cast<double>(moved_elements) /
                             static_cast<double>(payload_elements)));
}

// A chain state mid-replay: the mutable floats of the checkpoint at
// `iteration` (digest `crc`) for `owner_rank`.
struct ReplayState {
  int owner_rank = -1;
  int64_t iteration = -1;
  uint32_t crc = 0;
  std::vector<float> floats;

  static ReplayState Of(const Checkpoint& checkpoint) {
    return ReplayState{checkpoint.owner_rank, checkpoint.iteration, checkpoint.payload_crc,
                       checkpoint.payload.ToVector()};
  }

  // Freezes the floats into the full checkpoint they now hold.
  Checkpoint Seal(Bytes logical_bytes) && {
    Checkpoint result;
    result.owner_rank = owner_rank;
    result.iteration = iteration;
    result.logical_bytes = logical_bytes;
    result.payload = std::move(floats);
    result.payload_crc = crc;
    return result;
  }
};

// Splices `delta` into `state` in place, verifying (1) the base binding
// (owner, iteration, geometry, base CRC), (2) every chunk's CRC before its
// bytes land, and (3) the spliced floats against `state_crc`. On success
// `state` stands for the delta's iteration; on failure its floats are
// unspecified.
Status SpliceDelta(ReplayState& state, const DeltaCheckpoint& delta) {
  if (state.owner_rank != delta.owner_rank) {
    return InvalidArgumentError("delta applied to a different owner's base");
  }
  if (state.iteration != delta.base_iteration) {
    return FailedPreconditionError(
        "delta base iteration " + std::to_string(delta.base_iteration) +
        " does not match checkpoint iteration " + std::to_string(state.iteration));
  }
  if (state.floats.size() != delta.payload_elements) {
    return InvalidArgumentError("delta payload geometry does not match the base");
  }
  if (state.crc != delta.base_crc) {
    return DataLossError("delta base CRC mismatch: base state is not the one the delta sealed");
  }
  for (const DeltaChunk& chunk : delta.chunks) {
    const size_t begin = chunk.chunk_index * delta.chunk_elements;
    if (begin + chunk.data.size() > state.floats.size()) {
      return DataLossError("delta chunk overflows the shard");
    }
    // Per-chunk CRC gate: a bit-flipped slice must fail here, before any
    // byte lands in the materialized state.
    if (Crc32(chunk.data.data(), chunk.data.size_bytes()) != chunk.crc) {
      return DataLossError("delta chunk " + std::to_string(chunk.chunk_index) +
                           " failed its CRC check");
    }
    std::copy(chunk.data.begin(), chunk.data.end(), state.floats.begin() + begin);
  }
  // End-to-end gate: the materialized state must match the digest recorded
  // when the delta was built.
  const uint32_t crc = state.floats.empty()
                           ? 0
                           : Crc32(state.floats.data(), state.floats.size() * sizeof(float));
  if (crc != delta.state_crc) {
    return DataLossError("materialized delta state failed its full-state CRC check");
  }
  state.iteration = delta.iteration;
  state.crc = crc;
  return Status::Ok();
}

}  // namespace

StatusOr<DeltaCheckpoint> BuildDeltaCheckpoint(const Checkpoint& base, const Checkpoint& current,
                                               size_t chunk_elements,
                                               const std::vector<uint8_t>* dirty_hint) {
  if (chunk_elements == 0) {
    return InvalidArgumentError("delta chunk_elements must be >= 1");
  }
  if (base.owner_rank != current.owner_rank) {
    return InvalidArgumentError("delta base and current belong to different owners");
  }
  if (base.payload.size() != current.payload.size()) {
    return InvalidArgumentError("delta base and current payload sizes differ");
  }
  if (current.iteration <= base.iteration) {
    return InvalidArgumentError("delta must move forward in iterations");
  }
  const size_t elements = current.payload.size();
  const size_t num_chunks = (elements + chunk_elements - 1) / chunk_elements;
  if (dirty_hint != nullptr && dirty_hint->size() != num_chunks) {
    return InvalidArgumentError("dirty hint size does not match chunk count");
  }

  DeltaCheckpoint delta;
  delta.owner_rank = current.owner_rank;
  delta.iteration = current.iteration;
  delta.base_iteration = base.iteration;
  delta.base_crc = base.payload_crc;
  delta.state_crc = current.payload_crc;
  delta.logical_bytes = current.logical_bytes;
  delta.chunk_elements = chunk_elements;
  delta.payload_elements = elements;

  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    // The trainer's dirty bits are a superset of the truly changed chunks,
    // so an unhinted chunk is known-clean and skipped without comparison.
    if (dirty_hint != nullptr && (*dirty_hint)[chunk] == 0) {
      continue;
    }
    const size_t begin = chunk * chunk_elements;
    const size_t count = std::min(chunk_elements, elements - begin);
    const PayloadRef base_slice = base.payload.Slice(begin, count);
    const PayloadRef current_slice = current.payload.Slice(begin, count);
    const uint32_t current_crc = Crc32(current_slice.data(), current_slice.size_bytes());
    // Content-wise dedupe: a dirty bit whose write was a no-op compares
    // equal here and ships nothing. Fingerprint first; bytes only on a
    // fingerprint match, so a CRC collision can never drop a changed chunk.
    if (Crc32(base_slice.data(), base_slice.size_bytes()) == current_crc &&
        std::memcmp(base_slice.data(), current_slice.data(), count * sizeof(float)) == 0) {
      continue;
    }
    delta.chunks.push_back(DeltaChunk{chunk, current_slice, current_crc});
  }
  // Pack the changed chunks into one buffer the delta owns. The slices above
  // view the whole capture; kept, they would pin every byte of it for as
  // long as the delta sits in a chain.
  std::vector<float> packed;
  packed.reserve(delta.delta_elements());
  for (const DeltaChunk& chunk : delta.chunks) {
    packed.insert(packed.end(), chunk.data.begin(), chunk.data.end());
  }
  const PayloadRef owned(std::move(packed));
  size_t offset = 0;
  for (DeltaChunk& chunk : delta.chunks) {
    chunk.data = owned.Slice(offset, chunk.data.size());
    offset += chunk.data.size();
  }
  delta.delta_bytes = ProrateBytes(delta.logical_bytes, delta.delta_elements(), elements);
  return delta;
}

StatusOr<Checkpoint> ApplyDeltaCheckpoint(const Checkpoint& base, const DeltaCheckpoint& delta) {
  if (!delta.valid()) {
    return InvalidArgumentError("delta is not well-formed");
  }
  ReplayState state = ReplayState::Of(base);
  GEMINI_RETURN_IF_ERROR(SpliceDelta(state, delta));
  return std::move(state).Seal(delta.logical_bytes);
}

void AdoptEqualPayload(Checkpoint& verified, const Checkpoint& capture) {
  // Bytes, not float ==: 0.0f == -0.0f, and a NaN never equals itself.
  if (capture.owner_rank != verified.owner_rank || capture.iteration != verified.iteration ||
      capture.logical_bytes != verified.logical_bytes ||
      capture.payload_crc != verified.payload_crc ||
      verified.payload.empty() || capture.payload.size() != verified.payload.size() ||
      std::memcmp(capture.payload.data(), verified.payload.data(),
                  verified.payload.size_bytes()) != 0) {
    return;
  }
  verified.payload = capture.payload;
}

void RedoLog::Reset(Checkpoint base) {
  base_ = std::move(base);
  deltas_.clear();
  chain_bytes_ = 0;
}

void RedoLog::Clear() {
  base_ = Checkpoint{};
  deltas_.clear();
  chain_bytes_ = 0;
}

int64_t RedoLog::latest_iteration() const {
  if (!deltas_.empty()) {
    return deltas_.back().iteration;
  }
  return base_iteration();
}

uint32_t RedoLog::latest_state_crc() const {
  if (!deltas_.empty()) {
    return deltas_.back().state_crc;
  }
  return base_.valid() ? base_.payload_crc : 0;
}

Status RedoLog::Append(DeltaCheckpoint delta) {
  if (!base_.valid()) {
    return FailedPreconditionError("redo log has no sealed base");
  }
  if (!delta.valid()) {
    return InvalidArgumentError("delta is not well-formed");
  }
  if (delta.owner_rank != base_.owner_rank) {
    return InvalidArgumentError("delta owner does not match the sealed base");
  }
  // Epoch sealing: the chain is always a gapless replayable prefix — each
  // delta must extend the current head exactly.
  if (delta.base_iteration != latest_iteration()) {
    return FailedPreconditionError(
        "delta bases on iteration " + std::to_string(delta.base_iteration) +
        " but the chain head is " + std::to_string(latest_iteration()));
  }
  if (delta.base_crc != latest_state_crc()) {
    return DataLossError("delta base CRC does not match the chain head state");
  }
  chain_bytes_ += delta.delta_bytes;
  deltas_.push_back(std::move(delta));
  return Status::Ok();
}

bool RedoLog::NeedsCompaction() const { return config_.ChainFull(deltas_.size(), chain_bytes_); }

StatusOr<Checkpoint> RedoLog::Materialize() const {
  if (!base_.valid()) {
    return NotFoundError("redo log has no sealed base");
  }
  if (deltas_.empty()) {
    return base_;
  }
  ReplayState state = ReplayState::Of(base_);
  for (const DeltaCheckpoint& delta : deltas_) {
    GEMINI_RETURN_IF_ERROR(SpliceDelta(state, delta));
  }
  return std::move(state).Seal(deltas_.back().logical_bytes);
}

Status RedoLog::Compact(const Checkpoint* capture) {
  if (deltas_.empty()) {
    return Status::Ok();
  }
  // Every gate runs first; adoption only swaps a verified fold's buffer for
  // an identical one, so it can never stand in for a chain that fails.
  GEMINI_ASSIGN_OR_RETURN(Checkpoint folded, Materialize());
  if (capture != nullptr) {
    AdoptEqualPayload(folded, *capture);
  }
  Reset(std::move(folded));
  return Status::Ok();
}

Status RedoLog::CorruptDelta(size_t chain_index, size_t bit_index) {
  if (chain_index >= deltas_.size()) {
    return NotFoundError("redo log chain has no delta at that index");
  }
  DeltaCheckpoint& delta = deltas_[chain_index];
  size_t total_bits = 0;
  for (const DeltaChunk& chunk : delta.chunks) {
    total_bits += chunk.data.size_bytes() * 8;
  }
  if (total_bits == 0) {
    return FailedPreconditionError("delta has no payload bytes to corrupt");
  }
  size_t bit = bit_index % total_bits;
  for (DeltaChunk& chunk : delta.chunks) {
    const size_t chunk_bits = chunk.data.size_bytes() * 8;
    if (bit < chunk_bits) {
      // Copy-on-write: the slice shares the delta's packed buffer with every
      // other copy of this delta (sibling replicas); detach before flipping.
      auto* bytes = reinterpret_cast<uint8_t*>(chunk.data.MutableData());
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      return Status::Ok();
    }
    bit -= chunk_bits;
  }
  return InternalError("bit index mapping failed");
}

}  // namespace gemini
