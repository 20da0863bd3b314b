// Binary checkpoint serialization (the torch.save / torch.load analogue).
//
// Format (little-endian):
//   magic "GMCK" | u32 version | i32 owner | i64 iteration | i64 logical
//   | u64 payload_count | payload floats | u32 crc32(everything before crc)
//
// Deserialize verifies magic, version, and CRC, so a recovery path can never
// silently load torn or corrupted state.
#ifndef SRC_STORAGE_SERIALIZER_H_
#define SRC_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/storage/checkpoint.h"

namespace gemini {

class ThreadPool;

// Recycles serialized-blob buffers across checkpoints: Acquire() hands back
// a released buffer only when no other shared_ptr still references it, so a
// blob pinned by an in-flight upload is never clobbered. Steady-state serialization is allocation-free
// once warm.
class BlobPool {
 public:
  // A mutable buffer resized to `bytes` (contents unspecified).
  std::shared_ptr<std::vector<uint8_t>> Acquire(size_t bytes) {
    for (auto& slot : buffers_) {
      if (slot.use_count() == 1 && slot->capacity() >= bytes) {
        std::shared_ptr<std::vector<uint8_t>> buffer = slot;
        buffer->resize(bytes);
        return buffer;
      }
    }
    buffers_.push_back(std::make_shared<std::vector<uint8_t>>(bytes));
    return buffers_.back();
  }

  size_t allocated_buffers() const { return buffers_.size(); }

 private:
  std::vector<std::shared_ptr<std::vector<uint8_t>>> buffers_;
};

// Knobs for the pooled/parallel serialization path. Defaults reproduce the
// plain SerializeCheckpoint byte-for-byte (they always do — see below).
struct SerializeOptions {
  // Fans the payload copy and the trailing CRC out across workers (per-shard
  // segments, per-segment CRCs combined in rank order with Crc32Combine).
  // Null (or a 1-thread pool) runs inline. The output bytes are identical
  // either way: segmented-CRC-combine is exact, not approximate.
  ThreadPool* workers = nullptr;
  // Output buffers are leased from this pool instead of freshly allocated.
  BlobPool* pool = nullptr;
};

std::vector<uint8_t> SerializeCheckpoint(const Checkpoint& checkpoint);

// Pooled/parallel form: same bytes as SerializeCheckpoint, in a buffer owned
// by options.pool (or a fresh one when pool is null). The caller's
// shared_ptr pins the buffer; dropping it returns the buffer to the pool.
std::shared_ptr<std::vector<uint8_t>> SerializeCheckpointShared(const Checkpoint& checkpoint,
                                                                const SerializeOptions& options);

StatusOr<Checkpoint> DeserializeCheckpoint(const std::vector<uint8_t>& bytes);

// Timing model for serialization. torch.save is CPU-bound: the paper
// measures 81 s per HighFreq checkpoint and 162 s to serialize two replicas
// at recovery (GPT-2 100B, 75 GiB per machine replica), i.e. ~1 GiB/s.
struct SerializationModel {
  // Calibrated: the paper measures 81 s per 75 GB machine replica.
  BytesPerSecond bandwidth = 0.93e9;

  TimeNs SerializeTime(Bytes logical_bytes) const { return TransferTime(logical_bytes, bandwidth); }
};

}  // namespace gemini

#endif  // SRC_STORAGE_SERIALIZER_H_
