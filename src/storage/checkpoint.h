// Checkpoint objects.
//
// A checkpoint is the model states owned by one machine (its ZeRO-3 shard of
// parameters + optimizer states). Checkpoints carry two sizes:
//  * `logical_bytes` — the modeled size used for all timing (e.g. 75 GiB per
//    machine for GPT-2 100B on 16 machines: 12 bytes/param of fp32 optimizer
//    state + master weights, sharded);
//  * a real float payload — small, but flows through every code path
//    (partitioned, transferred, serialized, CRC-checked, restored) so that
//    recovery correctness is verified on actual bytes.
//
// Payload ownership: the payload is an immutable shared buffer behind a
// `PayloadRef` handle, so copying a Checkpoint — staged snapshot -> m holder
// stores -> persistent tier -> recovery reads — shares one allocation
// instead of deep-copying floats at every hop. The bytes are frozen at
// capture; the only mutation door is `MutableData()`, the copy-on-write
// escape hatch behind the corruption *test hooks* (CorruptLatest /
// CorruptShard), which detaches the corrupted holder onto a private copy so
// bit-rot injected into one replica can never leak into its siblings.
#ifndef SRC_STORAGE_CHECKPOINT_H_
#define SRC_STORAGE_CHECKPOINT_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/units.h"

namespace gemini {

// Immutable shared payload handle: a shared_ptr to a frozen float buffer plus
// an [offset, offset+size) view. Copies are O(1) (one refcount bump); value
// comparisons and reads see exactly the viewed floats.
class PayloadRef {
 public:
  PayloadRef() = default;

  // Freezes `values` into a new shared buffer. Implicit on purpose: existing
  // call sites keep writing `checkpoint.payload = std::move(vec);`.
  PayloadRef(std::vector<float> values)  // NOLINT(google-explicit-constructor)
      : buffer_(std::make_shared<const std::vector<float>>(std::move(values))),
        offset_(0),
        size_(buffer_->size()) {}

  // Adopts an already-shared frozen buffer without copying (full view).
  explicit PayloadRef(std::shared_ptr<const std::vector<float>> buffer)
      : buffer_(std::move(buffer)), offset_(0), size_(buffer_ ? buffer_->size() : 0) {}

  // O(1) sub-view of the same shared buffer.
  PayloadRef Slice(size_t offset, size_t count) const {
    assert(offset + count <= size_);
    PayloadRef view = *this;
    view.offset_ += offset;
    view.size_ = count;
    return view;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t size_bytes() const { return size_ * sizeof(float); }
  const float* data() const { return buffer_ ? buffer_->data() + offset_ : nullptr; }
  const float* begin() const { return data(); }
  const float* end() const { return data() + size_; }
  const float& operator[](size_t i) const {
    assert(i < size_);
    return *(data() + i);
  }

  // Copy-out for paths that need to own mutable floats (trainer restore).
  std::vector<float> ToVector() const { return std::vector<float>(begin(), end()); }

  // True when both handles view the same underlying buffer (pointer, not
  // value, identity) — the aliasing predicate the sharing tests assert.
  bool SharesBufferWith(const PayloadRef& other) const {
    return buffer_ != nullptr && buffer_ == other.buffer_;
  }
  // Outstanding handles on the underlying buffer (0 for an empty ref).
  long use_count() const { return buffer_.use_count(); }  // NOLINT(google-runtime-int)
  // Floats the underlying buffer holds — what this view keeps alive, which
  // may be more than size().
  size_t buffer_size() const { return buffer_ ? buffer_->size() : 0; }

  // Copy-on-write escape hatch for the corruption test hooks: detaches this
  // handle onto a private full-buffer copy of the viewed floats and returns
  // mutable access. Every other holder keeps the original, untouched bytes.
  // The pointer stays valid until this handle is reassigned or destroyed.
  float* MutableData() {
    auto owned = std::make_shared<std::vector<float>>(begin(), end());
    float* raw = owned->data();
    buffer_ = std::move(owned);
    offset_ = 0;
    // size_ unchanged: the private copy is exactly the old view.
    return raw;
  }

  // Value equality (the floats seen through the view), not buffer identity.
  friend bool operator==(const PayloadRef& a, const PayloadRef& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const PayloadRef& a, const std::vector<float>& b) {
    return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::shared_ptr<const std::vector<float>> buffer_;
  size_t offset_ = 0;
  size_t size_ = 0;
};

struct Checkpoint {
  // Rank of the machine whose model states these are.
  int owner_rank = -1;
  // Training iteration the states correspond to (checkpoint taken after the
  // update of this iteration).
  int64_t iteration = -1;
  // Modeled size used by the cost models and memory accounting.
  Bytes logical_bytes = 0;
  // Real payload: an immutable shared handle, so Checkpoint copies are O(1).
  PayloadRef payload;
  // CRC-32 of the payload bytes, recorded at capture time so every tier can
  // verify the replica it is about to serve. Every producer stamps it, and 0
  // is an ordinary CRC value, not an "unstamped" marker that skips the check.
  uint32_t payload_crc = 0;

  bool valid() const { return owner_rank >= 0 && iteration >= 0; }

  uint32_t ComputePayloadCrc() const {
    return payload.empty() ? 0 : Crc32(payload.data(), payload.size_bytes());
  }
  void StampPayloadCrc() { payload_crc = ComputePayloadCrc(); }
  // True when the payload still matches its recorded digest.
  bool IntegrityOk() const { return payload_crc == ComputePayloadCrc(); }

  friend bool operator==(const Checkpoint& a, const Checkpoint& b) {
    return a.owner_rank == b.owner_rank && a.iteration == b.iteration &&
           a.logical_bytes == b.logical_bytes && a.payload == b.payload;
  }
};

}  // namespace gemini

#endif  // SRC_STORAGE_CHECKPOINT_H_
