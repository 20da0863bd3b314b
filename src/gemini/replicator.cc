#include "src/gemini/replicator.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <string>

#include "src/common/crc32.h"
#include "src/obs/auditor.h"
#include "src/obs/metrics.h"

namespace gemini {
namespace {

// Shared completion state across all streams of one snapshot.
struct Outcome {
  ReplicationOutcome result;
  InterferenceAuditor* auditor = nullptr;
  // Hot-path metric handles, resolved once per replication pass — chunk
  // completions must not pay a string-keyed map lookup each.
  Counter* chunks_transferred_counter = nullptr;
  Counter* bytes_replicated_counter = nullptr;
  Counter* commits_counter = nullptr;
  // Per-chunk counter updates are accumulated here and flushed as one
  // Increment(n) per counter when a stream finishes (or the pass fails) —
  // one batched update per checkpoint replica instead of one per chunk.
  // Final totals match the per-chunk form exactly.
  int64_t unflushed_chunks = 0;
  int64_t unflushed_bytes = 0;
  // Worker pool for the commit path's integrity CRC (ReplicatorConfig::
  // workers). Null = inline sequential CRC.
  ThreadPool* workers = nullptr;
  int pending_streams = 0;
  bool failed = false;
  std::function<void(ReplicationOutcome)> done;

  // One pass's state, wired to the config's auditor, workers and metrics.
  static std::shared_ptr<Outcome> ForPass(const ReplicatorConfig& config,
                                          std::function<void(ReplicationOutcome)> done) {
    auto outcome = std::make_shared<Outcome>();
    outcome->auditor = config.auditor;
    outcome->workers = config.workers;
    outcome->done = std::move(done);
    if (config.metrics != nullptr) {
      outcome->chunks_transferred_counter =
          &config.metrics->counter("replicator.chunks_transferred");
      outcome->bytes_replicated_counter = &config.metrics->counter("replicator.bytes_replicated");
      outcome->commits_counter = &config.metrics->counter("replicator.commits");
    }
    return outcome;
  }

  void FlushMetricBatch() {
    if (chunks_transferred_counter != nullptr && unflushed_chunks > 0) {
      chunks_transferred_counter->Increment(unflushed_chunks);
      bytes_replicated_counter->Increment(unflushed_bytes);
    }
    unflushed_chunks = 0;
    unflushed_bytes = 0;
  }

  void StreamFinished(TimeNs at) {
    FlushMetricBatch();
    result.committed_at = std::max(result.committed_at, at);
    if (--pending_streams == 0 && !failed) {
      result.status = Status::Ok();
      done(result);
    }
  }
  void Fail(Status status) {
    FlushMetricBatch();
    if (failed) {
      return;
    }
    failed = true;
    result.status = std::move(status);
    done(result);
  }
};

// One owner->holder chunk stream with a p-deep send window.
struct Stream : std::enable_shared_from_this<Stream> {
  Cluster* cluster = nullptr;
  std::shared_ptr<Outcome> outcome;
  CpuCheckpointStore* store = nullptr;
  Checkpoint snapshot;  // Owner's full checkpoint (payload shared, not copied).
  int source = -1;      // Fabric endpoint the bytes come from (the owner for
                        // foreground replication, any holder for re-protection).
  int dest = -1;
  // Re-protection streams run concurrently with foreground checkpointing: a
  // newer commit clobbering this stream's in-progress write means the
  // redundancy goal was already met, so losing that race is success.
  bool tolerate_supersede = false;
  std::vector<ChunkAssignment> chunks;
  size_t next_send = 0;
  size_t committed_chunks = 0;
  // Received-side assembly target, allocated for this stream and frozen
  // into the committed checkpoint.
  std::shared_ptr<std::vector<float>> assembled;
  // Elements written through SliceFor; must tile the payload exactly.
  size_t assembled_elements = 0;

  // True when a write-path error just means a newer checkpoint landed first.
  bool Superseded() const {
    return tolerate_supersede &&
           store->LatestIteration(snapshot.owner_rank) >= snapshot.iteration;
  }

  // Payload slice [begin, end) corresponding to chunk k's byte range. Exact
  // integer arithmetic: element i covers logical bytes [i*total/count,
  // (i+1)*total/count), so floor(offset*count/total) maps a byte offset to
  // its element. Because each stream's chunk offsets are contiguous
  // (offset_{k+1} = offset_k + bytes_k, covering [0, total)), chunk k's end
  // equals chunk k+1's begin and the slices tile the payload with no overlap
  // or gap — the double-rounded version this replaces could do both.
  std::pair<size_t, size_t> SliceFor(const ChunkAssignment& chunk) const {
    const auto total = static_cast<uint64_t>(snapshot.logical_bytes);
    const auto count = static_cast<uint64_t>(snapshot.payload.size());
    if (total == 0 || count == 0) {
      return {0, 0};
    }
    assert(chunk.offset >= 0 && chunk.bytes >= 0 &&
           chunk.offset + chunk.bytes <= snapshot.logical_bytes);
    // 128-bit intermediate: offset*count can exceed 2^63 for TiB-scale
    // logical sizes with large test payloads.
    using U128 = unsigned __int128;
    const auto begin =
        static_cast<size_t>(static_cast<U128>(chunk.offset) * count / total);
    const auto end = static_cast<size_t>(
        static_cast<U128>(chunk.offset + chunk.bytes) * count / total);
    assert(begin <= end && end <= count);
    return {begin, end};
  }

  void SendNext() {
    if (outcome->failed || next_send >= chunks.size()) {
      return;
    }
    const size_t k = next_send++;
    const ChunkAssignment chunk = chunks[k];
    auto self = shared_from_this();
    const TimeNs sent_at = cluster->sim().now();
    Fabric::TransferOptions options;  // Checkpoint streams run at line rate.
    cluster->fabric().Transfer(
        source, dest, chunk.bytes, options, [self, chunk, sent_at](Status status) {
          if (!status.ok()) {
            self->outcome->Fail(std::move(status));
            return;
          }
          ++self->outcome->result.chunks_transferred;
          self->outcome->unflushed_chunks += 1;
          self->outcome->unflushed_bytes += chunk.bytes;
          if (self->outcome->failed) {
            // In-flight transfers that land after the pass already failed
            // still count (they did move bytes); no StreamFinished will run
            // for them, so flush immediately.
            self->outcome->FlushMetricBatch();
          }
          if (self->outcome->auditor != nullptr) {
            self->outcome->auditor->NoteBackgroundTransfer(chunk.span_index, chunk.bytes,
                                                           sent_at,
                                                           self->cluster->sim().now());
          }
          self->outcome->result.network_done =
              std::max(self->outcome->result.network_done, self->cluster->sim().now());
          // Stage the received chunk into CPU memory.
          self->cluster->pcie().Copy(self->dest, chunk.bytes, [self, chunk](Status copy_status) {
            if (!copy_status.ok()) {
              self->outcome->Fail(std::move(copy_status));
              return;
            }
            self->OnChunkCopied(chunk);
          });
        });
  }

  void OnChunkCopied(const ChunkAssignment& chunk) {
    if (outcome->failed) {
      return;
    }
    const Status appended = store->AppendChunk(snapshot.owner_rank, chunk.bytes);
    if (!appended.ok()) {
      if (Superseded()) {
        outcome->StreamFinished(cluster->sim().now());
        return;
      }
      outcome->Fail(appended);
      return;
    }
    const auto [begin, end] = SliceFor(chunk);
    std::copy(snapshot.payload.begin() + static_cast<std::ptrdiff_t>(begin),
              snapshot.payload.begin() + static_cast<std::ptrdiff_t>(end),
              assembled->begin() + static_cast<std::ptrdiff_t>(begin));
    assembled_elements += end - begin;
    if (++committed_chunks == chunks.size()) {
      // The chunk slices must have tiled the payload exactly — a mis-rounded
      // slice map would commit a replica that differs from the source.
      assert(assembled_elements == snapshot.payload.size());
      Checkpoint received = snapshot;  // O(1): metadata + shared payload ref.
      received.payload =
          PayloadRef(std::shared_ptr<const std::vector<float>>(std::move(assembled)));
      // Integrity gate: the digest stamped at capture must match the bytes
      // this stream reassembled. Crc32Parallel fans the pass across the
      // configured worker pool (per-segment CRCs combined in rank order —
      // the same value at any thread count); with no pool it is one inline
      // sequential pass.
      if (Crc32Parallel(received.payload.data(), received.payload.size_bytes(),
                        outcome->workers) != received.payload_crc) {
        outcome->Fail(DataLossError("replica assembled for rank " +
                                    std::to_string(snapshot.owner_rank) +
                                    " failed its pre-commit CRC check"));
        return;
      }
      const Status committed = store->CommitWrite(std::move(received));
      if (!committed.ok()) {
        if (Superseded()) {
          outcome->StreamFinished(cluster->sim().now());
          return;
        }
        outcome->Fail(committed);
        return;
      }
      if (outcome->commits_counter != nullptr) {
        outcome->commits_counter->Increment();
      }
      outcome->StreamFinished(cluster->sim().now());
      return;
    }
    SendNext();  // Replenish the send window.
  }
};

// Fills every stream's p-deep send window.
void SendWindows(const std::vector<std::shared_ptr<Stream>>& streams, int num_buffers) {
  for (const auto& stream : streams) {
    for (int i = 0; i < std::max(1, num_buffers); ++i) {
      stream->SendNext();
    }
  }
}

}  // namespace

void ReplicateSnapshot(Cluster& cluster, const PlacementPlan& placement,
                       std::vector<CpuCheckpointStore*> stores,
                       const std::vector<Checkpoint>& snapshots,
                       const std::vector<ChunkAssignment>& chunks,
                       const ReplicatorConfig& config,
                       std::function<void(ReplicationOutcome)> done) {
  assert(static_cast<int>(stores.size()) == cluster.size());
  assert(static_cast<int>(snapshots.size()) == cluster.size());

  const std::shared_ptr<Outcome> outcome = Outcome::ForPass(config, std::move(done));

  std::vector<std::shared_ptr<Stream>> streams;
  for (int owner = 0; owner < cluster.size(); ++owner) {
    if (!cluster.machine(owner).alive()) {
      continue;
    }
    const Checkpoint& snapshot = snapshots[static_cast<size_t>(owner)];
    const std::vector<int> destinations = placement.RemoteDestinations(owner);
    for (size_t replica = 0; replica < destinations.size(); ++replica) {
      const int dest = destinations[replica];
      if (!cluster.machine(dest).alive()) {
        continue;
      }
      auto stream = std::make_shared<Stream>();
      stream->cluster = &cluster;
      stream->outcome = outcome;
      stream->store = stores[static_cast<size_t>(dest)];
      stream->snapshot = snapshot;  // Shares the payload buffer.
      stream->source = owner;
      stream->dest = dest;
      stream->assembled = std::make_shared<std::vector<float>>(snapshot.payload.size());
      for (const ChunkAssignment& chunk : chunks) {
        if (chunk.replica_index == static_cast<int>(replica)) {
          stream->chunks.push_back(chunk);
        }
      }
      const Status begun = stream->store->BeginWrite(owner, snapshot.iteration);
      if (!begun.ok()) {
        outcome->Fail(begun);
        return;
      }
      streams.push_back(std::move(stream));
    }
    // Local replica: copies over the owner's *own* GPUs' PCIe links, which
    // the received-replica staging (modeled by the shared per-machine
    // engine) does not use — the paper's "no interference between the local
    // GPU-to-CPU copy of its own checkpoint and other checkpoints".
    ++outcome->pending_streams;
    const TimeNs local_copy =
        TransferTime(snapshot.logical_bytes, cluster.spec().gpu_cpu_copy_bandwidth);
    cluster.sim().ScheduleAfter(
        local_copy, [outcome, store = stores[static_cast<size_t>(owner)], snapshot, &cluster] {
          const Status written = store->WriteComplete(snapshot);
          if (!written.ok()) {
            outcome->Fail(written);
            return;
          }
          outcome->StreamFinished(cluster.sim().now());
        });
  }

  outcome->pending_streams += static_cast<int>(streams.size());
  SendWindows(streams, config.num_buffers);
}

void ReprotectReplicas(Cluster& cluster, const PlacementPlan& placement,
                       std::vector<CpuCheckpointStore*> stores,
                       const std::vector<int>& target_ranks, Bytes chunk_bytes,
                       const ReplicatorConfig& config,
                       std::function<void(ReplicationOutcome)> done) {
  assert(static_cast<int>(stores.size()) == cluster.size());

  const std::shared_ptr<Outcome> outcome = Outcome::ForPass(config, std::move(done));

  std::vector<std::shared_ptr<Stream>> streams;
  for (const int target : target_ranks) {
    if (!cluster.machine(target).alive()) {
      continue;  // Died again; a later pass will pick it up post-replacement.
    }
    for (int owner = 0; owner < cluster.size(); ++owner) {
      const auto& holders = placement.replica_sets[static_cast<size_t>(owner)];
      if (std::find(holders.begin(), holders.end(), target) == holders.end()) {
        continue;  // The target is not in this owner's replica set.
      }
      // Best alive source: the holder (or the owner itself) with the newest
      // CRC-verified copy of `owner`'s checkpoint.
      int source = -1;
      std::optional<Checkpoint> snapshot;
      for (const int candidate : holders) {
        if (candidate == target || !cluster.machine(candidate).alive()) {
          continue;
        }
        std::optional<Checkpoint> copy =
            stores[static_cast<size_t>(candidate)]->LatestVerified(owner);
        if (copy.has_value() &&
            (!snapshot.has_value() || copy->iteration > snapshot->iteration)) {
          source = candidate;
          snapshot = std::move(copy);
        }
      }
      if (!snapshot.has_value()) {
        continue;  // No surviving copy anywhere; nothing to re-protect from.
      }
      if (stores[static_cast<size_t>(target)]->LatestIteration(owner) >= snapshot->iteration) {
        continue;  // Already protected (a foreground commit got there first).
      }
      auto stream = std::make_shared<Stream>();
      stream->cluster = &cluster;
      stream->outcome = outcome;
      stream->store = stores[static_cast<size_t>(target)];
      stream->snapshot = *snapshot;  // Shares the payload buffer.
      stream->source = source;
      stream->dest = target;
      stream->tolerate_supersede = true;
      stream->assembled = std::make_shared<std::vector<float>>(snapshot->payload.size());
      const Bytes total = snapshot->logical_bytes;
      const Bytes step = chunk_bytes > 0 ? std::min(chunk_bytes, total) : total;
      for (Bytes offset = 0; offset < total; offset += step) {
        ChunkAssignment chunk;
        chunk.bytes = std::min(step, total - offset);
        chunk.offset = offset;
        stream->chunks.push_back(chunk);
      }
      const Status begun = stream->store->BeginWrite(owner, snapshot->iteration);
      if (!begun.ok()) {
        outcome->Fail(begun);
        return;
      }
      streams.push_back(std::move(stream));
    }
  }

  if (streams.empty()) {
    // Everything is already fully replicated (or nothing can be): report
    // success with zero traffic.
    outcome->result.status = Status::Ok();
    outcome->result.committed_at = cluster.sim().now();
    outcome->done(outcome->result);
    return;
  }

  outcome->pending_streams = static_cast<int>(streams.size());
  if (config.metrics != nullptr) {
    config.metrics->counter("replicator.reprotected_replicas")
        .Increment(static_cast<int64_t>(streams.size()));
  }
  SendWindows(streams, config.num_buffers);
}

}  // namespace gemini
