// Incremental checkpoint suite (ctest label "delta"): the delta format's
// build/apply round-trips and CRC-keyed content dedupe, the epoch-sealed
// redo log (sealing, compaction, corruption), the CPU and persistent
// stores' chain paths and their adoption of an equal capture's buffer, PayloadRef slice / Crc32Combine edge cases, config
// validation of the incremental knobs, and the acceptance property:
// delta-chain recovery is bit-exact against full-snapshot recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/thread_pool.h"
#include "src/gemini/gemini_system.h"
#include "src/obs/metrics.h"
#include "src/storage/cpu_store.h"
#include "src/storage/delta.h"
#include "src/storage/persistent_store.h"
#include "src/training/trainer.h"

namespace gemini {
namespace {

// Deterministic full checkpoint: element i of (owner, iteration) is unique,
// so any misapplied chunk changes bytes the CRCs must notice.
Checkpoint MakeCheckpoint(int owner, int64_t iteration, size_t elements,
                          Bytes logical = MiB(64)) {
  Checkpoint checkpoint;
  checkpoint.owner_rank = owner;
  checkpoint.iteration = iteration;
  checkpoint.logical_bytes = logical;
  std::vector<float> values(elements);
  for (size_t i = 0; i < elements; ++i) {
    values[i] = static_cast<float>(owner) + static_cast<float>(i) * 0.5f +
                static_cast<float>(iteration) * 0.01f;
  }
  checkpoint.payload = std::move(values);
  checkpoint.StampPayloadCrc();
  return checkpoint;
}

// The checkpoint one iteration later with exactly `chunks` changed (every
// element of each listed chunk bumped), all other chunks byte-identical.
Checkpoint MutateChunks(const Checkpoint& base, int64_t iteration, size_t chunk_elements,
                        const std::vector<size_t>& chunks) {
  std::vector<float> values = base.payload.ToVector();
  for (const size_t chunk : chunks) {
    const size_t begin = chunk * chunk_elements;
    const size_t end = std::min(begin + chunk_elements, values.size());
    for (size_t i = begin; i < end; ++i) {
      values[i] += 1.0f;
    }
  }
  Checkpoint next = base;
  next.iteration = iteration;
  next.payload = std::move(values);
  next.StampPayloadCrc();
  return next;
}

// ---- Delta build/apply ----------------------------------------------------

TEST(DeltaBuildTest, SelectsOnlyContentChangedChunks) {
  const Checkpoint base = MakeCheckpoint(0, 3, 64);
  const Checkpoint next = MutateChunks(base, 4, /*chunk_elements=*/8, {1, 5});
  const auto delta = BuildDeltaCheckpoint(base, next, 8);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_EQ(delta->chunks.size(), 2u);
  EXPECT_EQ(delta->chunks[0].chunk_index, 1u);
  EXPECT_EQ(delta->chunks[1].chunk_index, 5u);
  EXPECT_EQ(delta->delta_elements(), 16u);
  // Modeled bytes prorate by the moved-element fraction: 16 of 64 elements.
  EXPECT_EQ(delta->delta_bytes, base.logical_bytes / 4);
  const auto applied = ApplyDeltaCheckpoint(base, *delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, next);
  EXPECT_EQ(applied->payload_crc, next.payload_crc);
}

TEST(DeltaBuildTest, DirtyHintIsPrunedByContentDedupe) {
  const Checkpoint base = MakeCheckpoint(0, 3, 64);
  const Checkpoint next = MutateChunks(base, 4, /*chunk_elements=*/8, {5});
  // The trainer's conservative bits flag 1, 2, and 5 dirty; 1 and 2 turn out
  // to be no-op writes and must be deduplicated away by the CRC+byte compare.
  std::vector<uint8_t> hint(8, 0);
  hint[1] = hint[2] = hint[5] = 1;
  const auto delta = BuildDeltaCheckpoint(base, next, 8, &hint);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_EQ(delta->chunks.size(), 1u);
  EXPECT_EQ(delta->chunks[0].chunk_index, 5u);
  const auto applied = ApplyDeltaCheckpoint(base, *delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, next);
}

TEST(DeltaBuildTest, IdenticalStatesProduceEmptyDelta) {
  const Checkpoint base = MakeCheckpoint(2, 7, 32);
  Checkpoint next = base;
  next.iteration = 8;  // Same bytes, newer epoch: nothing to ship.
  const auto delta = BuildDeltaCheckpoint(base, next, 4);
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_TRUE(delta->chunks.empty());
  EXPECT_EQ(delta->delta_bytes, 0);
  const auto applied = ApplyDeltaCheckpoint(base, *delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->iteration, 8);
  EXPECT_EQ(applied->payload, base.payload);
}

TEST(DeltaBuildTest, RejectsMalformedInputs) {
  const Checkpoint base = MakeCheckpoint(0, 3, 64);
  const Checkpoint next = MutateChunks(base, 4, 8, {1});
  EXPECT_FALSE(BuildDeltaCheckpoint(base, next, 0).ok()) << "chunk_elements 0";
  EXPECT_FALSE(BuildDeltaCheckpoint(next, base, 8).ok()) << "backward in iterations";
  Checkpoint other_owner = next;
  other_owner.owner_rank = 1;
  EXPECT_FALSE(BuildDeltaCheckpoint(base, other_owner, 8).ok()) << "owner mismatch";
  const Checkpoint smaller = MakeCheckpoint(0, 4, 32);
  EXPECT_FALSE(BuildDeltaCheckpoint(base, smaller, 8).ok()) << "payload size mismatch";
  std::vector<uint8_t> bad_hint(3, 1);  // 64 elements / 8 = 8 chunks, not 3.
  EXPECT_FALSE(BuildDeltaCheckpoint(base, next, 8, &bad_hint).ok()) << "hint size mismatch";
}

TEST(DeltaApplyTest, RejectsCorruptChunkAndWrongBase) {
  const Checkpoint base = MakeCheckpoint(0, 3, 64);
  const Checkpoint next = MutateChunks(base, 4, 8, {2});
  auto delta = BuildDeltaCheckpoint(base, next, 8);
  ASSERT_TRUE(delta.ok()) << delta.status();

  // Applying on a base from the wrong epoch is a seal violation.
  const Checkpoint wrong_epoch = MakeCheckpoint(0, 2, 64);
  EXPECT_EQ(ApplyDeltaCheckpoint(wrong_epoch, *delta).status().code(),
            StatusCode::kFailedPrecondition);
  // Right epoch, wrong bytes: the base CRC binding must catch it.
  Checkpoint forged = MutateChunks(base, 4, 8, {0});
  forged.iteration = base.iteration;
  forged.StampPayloadCrc();
  EXPECT_EQ(ApplyDeltaCheckpoint(forged, *delta).status().code(), StatusCode::kDataLoss);

  // Bit-rot inside the delta's payload must fail the per-chunk CRC gate
  // (copy-on-write: the flip never reaches the builder's snapshot).
  ASSERT_FALSE(delta->chunks.empty());
  auto* bytes = reinterpret_cast<uint8_t*>(delta->chunks[0].data.MutableData());
  bytes[1] ^= 0x10;
  EXPECT_EQ(ApplyDeltaCheckpoint(base, *delta).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(next.ComputePayloadCrc(), next.payload_crc) << "corruption leaked into the source";
}

TEST(DeltaApplyTest, TailChunkShorterThanChunkElementsRoundTrips) {
  // 10 elements at chunk size 4: chunks {4, 4, 2} — the tail chunk's slice
  // must carry exactly the 2 remaining elements.
  const Checkpoint base = MakeCheckpoint(1, 0, 10);
  const Checkpoint next = MutateChunks(base, 1, 4, {2});
  const auto delta = BuildDeltaCheckpoint(base, next, 4);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_EQ(delta->chunks.size(), 1u);
  EXPECT_EQ(delta->chunks[0].chunk_index, 2u);
  EXPECT_EQ(delta->chunks[0].data.size(), 2u);
  const auto applied = ApplyDeltaCheckpoint(base, *delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, next);
}

TEST(DeltaTest, DeltaOwnsOnlyShippedBytes) {
  const Checkpoint base = MakeCheckpoint(0, 3, 64);
  const Checkpoint next = MutateChunks(base, 4, /*chunk_elements=*/8, {1, 5, 6});
  const auto delta = BuildDeltaCheckpoint(base, next, 8);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_EQ(delta->chunks.size(), 3u);
  EXPECT_EQ(delta->delta_elements(), 24u);
  // The chunks view one packed buffer of exactly the shipped floats, never
  // the capture they were cut from.
  for (const DeltaChunk& chunk : delta->chunks) {
    EXPECT_FALSE(chunk.data.SharesBufferWith(next.payload));
    EXPECT_TRUE(chunk.data.SharesBufferWith(delta->chunks[0].data));
    EXPECT_EQ(chunk.data.buffer_size(), delta->delta_elements());
  }
  // A bit flipped in a chained copy stays in that copy: the chain fails its
  // CRC gate while the caller's delta still applies bit-exactly.
  RedoLog log;
  log.Reset(base);
  ASSERT_TRUE(log.Append(*delta).ok());
  ASSERT_TRUE(log.CorruptDelta(/*chain_index=*/0, /*bit_index=*/77).ok());
  EXPECT_EQ(log.Materialize().status().code(), StatusCode::kDataLoss);
  const auto applied = ApplyDeltaCheckpoint(base, *delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, next);
}

// ---- Redo log -------------------------------------------------------------

TEST(RedoLogTest, AppendEnforcesEpochSealing) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {1});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {3});
  const Checkpoint c3 = MutateChunks(c2, 3, 8, {5});
  const auto d01 = BuildDeltaCheckpoint(c0, c1, 8);
  const auto d12 = BuildDeltaCheckpoint(c1, c2, 8);
  const auto d23 = BuildDeltaCheckpoint(c2, c3, 8);
  ASSERT_TRUE(d01.ok() && d12.ok() && d23.ok());

  RedoLog log;
  EXPECT_EQ(log.Append(*d01).code(), StatusCode::kFailedPrecondition) << "no sealed base yet";
  log.Reset(c0);
  EXPECT_TRUE(log.Append(*d01).ok());
  // Replaying the same epoch or skipping one violates the seal.
  EXPECT_EQ(log.Append(*d01).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(log.Append(*d23).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(log.Append(*d12).ok());
  EXPECT_EQ(log.latest_iteration(), 2);
  EXPECT_EQ(log.chain_length(), 2u);
  const auto materialized = log.Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  EXPECT_EQ(*materialized, c2);
}

TEST(RedoLogTest, CompactFoldsChainIntoNewSealedBase) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {1});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {3, 4});
  RedoLog log(RedoLogConfig{/*max_chain_length=*/2, /*max_chain_bytes=*/0});
  log.Reset(c0);
  ASSERT_TRUE(log.Append(*BuildDeltaCheckpoint(c0, c1, 8)).ok());
  EXPECT_FALSE(log.NeedsCompaction());
  ASSERT_TRUE(log.Append(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  EXPECT_TRUE(log.NeedsCompaction());
  ASSERT_TRUE(log.Compact().ok());
  EXPECT_EQ(log.chain_length(), 0u);
  EXPECT_EQ(log.base_iteration(), 2);
  EXPECT_EQ(log.base(), c2);
  // The folded base accepts the next epoch directly.
  const Checkpoint c3 = MutateChunks(c2, 3, 8, {0});
  EXPECT_TRUE(log.Append(*BuildDeltaCheckpoint(c2, c3, 8)).ok());
}

TEST(RedoLogTest, CorruptLinkFailsMaterializeAndLeavesChainForDiagnosis) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {1});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {3});
  RedoLog log;
  log.Reset(c0);
  ASSERT_TRUE(log.Append(*BuildDeltaCheckpoint(c0, c1, 8)).ok());
  ASSERT_TRUE(log.Append(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  ASSERT_TRUE(log.CorruptDelta(/*chain_index=*/0, /*bit_index=*/5).ok());
  EXPECT_EQ(log.Materialize().status().code(), StatusCode::kDataLoss);
  // A failed fold must not destroy the chain (the read path surfaces it).
  EXPECT_FALSE(log.Compact().ok());
  EXPECT_EQ(log.chain_length(), 2u);
  EXPECT_EQ(log.base(), c0);
  EXPECT_EQ(log.CorruptDelta(/*chain_index=*/9, 0).code(), StatusCode::kNotFound);
}

// ---- CPU store chains -----------------------------------------------------

class CpuStoreDeltaTest : public ::testing::Test {
 protected:
  CpuStoreDeltaTest() : cluster_(sim_, 1, P4d24xlarge(), FabricConfig{}), store_(cluster_.machine(0)) {
    store_.set_metrics(&metrics_);
  }

  Simulator sim_;
  Cluster cluster_;
  MetricsRegistry metrics_;
  CpuCheckpointStore store_;
};

TEST_F(CpuStoreDeltaTest, FullCommitSealsBaseAndDeltasMaterializeTransparently) {
  store_.ConfigureRedoLog(RedoLogConfig{});
  ASSERT_TRUE(store_.HostOwner(0, MiB(64)).ok());
  const Checkpoint c1 = MakeCheckpoint(0, 1, 64);
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {2, 6});
  ASSERT_TRUE(store_.WriteComplete(c1).ok());
  EXPECT_EQ(store_.ChainHeadIteration(0), 1);
  ASSERT_TRUE(store_.WriteDelta(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  EXPECT_EQ(store_.ChainHeadIteration(0), 2);
  EXPECT_EQ(store_.ChainLength(0), 1u);
  EXPECT_EQ(store_.LatestIteration(0), 2);
  const auto served = store_.LatestVerified(0);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, c2);
  // A stale delta (same epoch again) is rejected; callers fall back to full.
  EXPECT_FALSE(store_.WriteDelta(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  EXPECT_EQ(metrics_.counter_value("cpu_store.delta_commits"), 1);
  EXPECT_GT(metrics_.counter_value("delta.bytes_saved"), 0);
}

TEST_F(CpuStoreDeltaTest, ChainCompactsAtConfiguredCap) {
  store_.ConfigureRedoLog(RedoLogConfig{/*max_chain_length=*/2, /*max_chain_bytes=*/0});
  ASSERT_TRUE(store_.HostOwner(0, MiB(64)).ok());
  Checkpoint state = MakeCheckpoint(0, 1, 64);
  ASSERT_TRUE(store_.WriteComplete(state).ok());
  for (int64_t iteration = 2; iteration <= 5; ++iteration) {
    const Checkpoint next =
        MutateChunks(state, iteration, 8, {static_cast<size_t>(iteration % 8)});
    ASSERT_TRUE(store_.WriteDelta(*BuildDeltaCheckpoint(state, next, 8)).ok());
    state = next;
  }
  // 4 deltas at cap 2: two folds, and the chain never exceeds the cap.
  EXPECT_EQ(metrics_.counter_value("compaction.folds"), 2);
  EXPECT_EQ(store_.ChainLength(0), 0u);
  EXPECT_EQ(store_.ChainHeadIteration(0), 5);
  const auto served = store_.LatestVerified(0);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, state);
}

TEST_F(CpuStoreDeltaTest, CorruptChainLinkIsCaughtByMaterializationCrc) {
  store_.ConfigureRedoLog(RedoLogConfig{});
  ASSERT_TRUE(store_.HostOwner(0, MiB(64)).ok());
  const Checkpoint c1 = MakeCheckpoint(0, 1, 64);
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {2});
  ASSERT_TRUE(store_.WriteComplete(c1).ok());
  ASSERT_TRUE(store_.WriteDelta(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  ASSERT_TRUE(store_.CorruptChainDelta(0, /*chain_index=*/0, /*bit_index=*/3).ok());
  // The whole replica is treated lost — serving the intact prefix would hand
  // recovery a mixed-iteration state.
  EXPECT_FALSE(store_.LatestVerified(0).has_value());
  EXPECT_GE(metrics_.counter_value("cpu_store.crc_failures"), 1);
}

// ---- CPU fold adoption ------------------------------------------------------

// Two holders of owner 0 with a fold every second delta: c1 full, c2 and c3
// as deltas, so the fold after c3 runs with c3 as the commit snapshot.
class CpuFoldAdoptionTest : public ::testing::Test {
 protected:
  CpuFoldAdoptionTest() : cluster_(sim_, 2, P4d24xlarge(), FabricConfig{}) {
    for (int holder = 0; holder < 2; ++holder) {
      stores_.push_back(std::make_unique<CpuCheckpointStore>(cluster_.machine(holder)));
      stores_.back()->set_metrics(&metrics_);
      stores_.back()->ConfigureRedoLog(RedoLogConfig{/*max_chain_length=*/2, 0});
      EXPECT_TRUE(stores_.back()->HostOwner(0, MiB(64)).ok());
      EXPECT_TRUE(stores_.back()->WriteComplete(c1_).ok());
      EXPECT_TRUE(stores_.back()->WriteDelta(*BuildDeltaCheckpoint(c1_, c2_, 8), &c2_).ok());
    }
  }

  Simulator sim_;
  Cluster cluster_;
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<CpuCheckpointStore>> stores_;
  const Checkpoint c1_ = MakeCheckpoint(0, 1, 64);
  const Checkpoint c2_ = MutateChunks(c1_, 2, 8, {2, 6});
  const Checkpoint c3_ = MutateChunks(c2_, 3, 8, {1});
};

TEST_F(CpuFoldAdoptionTest, BothHoldersFoldOntoTheCommitSnapshot) {
  for (const auto& store : stores_) {
    ASSERT_TRUE(store->WriteDelta(*BuildDeltaCheckpoint(c2_, c3_, 8), &c3_).ok());
  }
  EXPECT_EQ(metrics_.counter_value("compaction.folds"), 2);
  for (const auto& store : stores_) {
    EXPECT_EQ(store->ChainLength(0), 0u);
    const auto served = store->LatestVerified(0);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(*served, c3_);
    EXPECT_TRUE(served->payload.SharesBufferWith(c3_.payload))
        << "a fold equal to the snapshot must not keep its own copy";
  }
}

TEST_F(CpuFoldAdoptionTest, SnapshotWithDifferentBytesIsNotAdopted) {
  // Same owner and iteration, one float off: once with a valid CRC for its
  // own bytes, once still carrying the fold's CRC (only the byte compare
  // tells that one apart).
  Checkpoint restamped = c3_;
  restamped.payload.MutableData()[5] += 1.0f;
  restamped.StampPayloadCrc();
  Checkpoint stale_crc = c3_;
  stale_crc.payload.MutableData()[5] += 1.0f;
  const Checkpoint* impostors[] = {&restamped, &stale_crc};
  for (int holder = 0; holder < 2; ++holder) {
    CpuCheckpointStore& store = *stores_[static_cast<size_t>(holder)];
    const Checkpoint& impostor = *impostors[holder];
    ASSERT_TRUE(store.WriteDelta(*BuildDeltaCheckpoint(c2_, c3_, 8), &impostor).ok());
    const auto served = store.LatestVerified(0);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(*served, c3_) << "the fold keeps its own verified state";
    EXPECT_FALSE(served->payload.SharesBufferWith(impostor.payload)) << "holder " << holder;
  }
  EXPECT_EQ(metrics_.counter_value("compaction.folds"), 2);
}

TEST_F(CpuFoldAdoptionTest, CorruptLinkStillFailsTheFoldWithAValidSnapshot) {
  ASSERT_TRUE(stores_[0]->CorruptChainDelta(0, /*chain_index=*/0, /*bit_index=*/3).ok());
  // c3 is exactly the state the chain should fold to, and it is intact; the
  // corrupt link must fail the fold anyway and leave the chain standing.
  ASSERT_TRUE(stores_[0]->WriteDelta(*BuildDeltaCheckpoint(c2_, c3_, 8), &c3_).ok());
  EXPECT_EQ(metrics_.counter_value("compaction.folds"), 0);
  EXPECT_EQ(stores_[0]->ChainLength(0), 2u);
  EXPECT_EQ(metrics_.counter_value("cpu_store.crc_failures"), 0);
  EXPECT_FALSE(stores_[0]->LatestVerified(0).has_value());
  EXPECT_EQ(metrics_.counter_value("cpu_store.crc_failures"), 1);
}

// ---- Persistent store chains ----------------------------------------------

class PersistentDeltaTest : public ::testing::Test {
 protected:
  PersistentDeltaTest() : store_(sim_, PersistentStoreConfig{}) { store_.set_metrics(&metrics_); }

  Simulator sim_;
  MetricsRegistry metrics_;
  PersistentStore store_;
};

TEST_F(PersistentDeltaTest, SaveDeltaMaterializesAtArrivalAndAdvancesDurableEpoch) {
  store_.ConfigureRedoLog(RedoLogConfig{});
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {4});
  store_.SeedImmediate(c0, /*expected_world_size=*/1);
  EXPECT_EQ(store_.DeltaBaseIteration(0), 0);
  Status result = InternalError("done not called");
  store_.SaveDelta(*BuildDeltaCheckpoint(c0, c1, 8), /*expected_world_size=*/1,
                   [&](Status status) { result = status; });
  sim_.Run();
  ASSERT_TRUE(result.ok()) << result;
  // The retrieval surface is chain-free: the materialized full shard is what
  // became durable.
  EXPECT_EQ(store_.durable_epoch(), 1);
  const auto durable = store_.Peek(0, 1);
  ASSERT_TRUE(durable.has_value());
  EXPECT_EQ(*durable, c1);
  EXPECT_EQ(store_.DeltaBaseIteration(0), 1);
  EXPECT_EQ(store_.ChainLength(0), 1u);
}

TEST_F(PersistentDeltaTest, SealViolationSurfacesThroughDone) {
  store_.ConfigureRedoLog(RedoLogConfig{});
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {4});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {5});
  store_.SeedImmediate(c0, 1);
  // A delta based on iteration 1 cannot seal onto the head at iteration 0.
  Status result = Status::Ok();
  store_.SaveDelta(*BuildDeltaCheckpoint(c1, c2, 8), 1, [&](Status status) { result = status; });
  sim_.Run();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(store_.durable_epoch(), 0) << "a rejected delta must not advance the watermark";
}

TEST_F(PersistentDeltaTest, FullSaveResealsTheChainBase) {
  store_.ConfigureRedoLog(RedoLogConfig{});
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {4});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {6});
  store_.SeedImmediate(c0, 1);
  Status delta_result = InternalError("pending");
  store_.SaveDelta(*BuildDeltaCheckpoint(c0, c1, 8), 1,
                   [&](Status status) { delta_result = status; });
  Status full_result = InternalError("pending");
  store_.Save(c2, 1, [&](Status status) { full_result = status; });
  sim_.Run();
  ASSERT_TRUE(delta_result.ok()) << delta_result;
  ASSERT_TRUE(full_result.ok()) << full_result;
  EXPECT_EQ(store_.DeltaBaseIteration(0), 2);
  EXPECT_EQ(store_.ChainLength(0), 0u) << "a full save subsumes the chain";
  EXPECT_EQ(store_.durable_epoch(), 2);
}

TEST_F(PersistentDeltaTest, RetainsOnlyTheVerifiedHead) {
  store_.ConfigureRedoLog(RedoLogConfig{});  // cap 8: three deltas stay below it
  Checkpoint state = MakeCheckpoint(0, 0, 64);
  store_.SeedImmediate(state, 1);
  std::vector<PayloadRef> shipped;
  for (int64_t iteration = 1; iteration <= 3; ++iteration) {
    const Checkpoint next = MutateChunks(state, iteration, 8, {static_cast<size_t>(iteration)});
    DeltaCheckpoint delta = *BuildDeltaCheckpoint(state, next, 8);
    ASSERT_EQ(delta.chunks.size(), 1u);
    shipped.push_back(delta.chunks[0].data);
    // The capture of the produced state rides along, as the caller's.
    store_.SaveDelta(
        std::move(delta), 1, [](Status status) { EXPECT_TRUE(status.ok()) << status; }, next);
    state = next;
  }
  sim_.Run();
  for (const PayloadRef& packed : shipped) {
    EXPECT_EQ(packed.use_count(), 1) << "an applied delta must not stay in host memory";
  }
  const auto head = store_.Peek(0, 3);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(*head, state);
  EXPECT_TRUE(head->payload.SharesBufferWith(state.payload))
      << "the verified head must adopt the capture it equals";
  EXPECT_EQ(store_.ChainLength(0), 3u);
  EXPECT_EQ(store_.DeltaBaseIteration(0), 3);

  // A chunk tampered after the build fails its CRC gate, and nothing moves —
  // a valid capture of the intended state does not get it adopted.
  const Checkpoint c4 = MutateChunks(state, 4, 8, {5});
  DeltaCheckpoint tampered = *BuildDeltaCheckpoint(state, c4, 8);
  tampered.chunks[0].data.MutableData()[0] += 1.0f;
  Status rejected = Status::Ok();
  store_.SaveDelta(
      std::move(tampered), 1, [&](Status status) { rejected = status; }, c4);
  sim_.Run();
  EXPECT_EQ(rejected.code(), StatusCode::kDataLoss);
  EXPECT_EQ(store_.durable_epoch(), 3);
  EXPECT_EQ(store_.DeltaBaseIteration(0), 3);
  EXPECT_EQ(store_.ChainLength(0), 3u);
  EXPECT_FALSE(store_.Peek(0, 4).has_value());
  EXPECT_TRUE(store_.Peek(0, 3)->payload.SharesBufferWith(state.payload));

  // The next valid delta still seals onto the old head.
  Status applied = InternalError("pending");
  store_.SaveDelta(
      *BuildDeltaCheckpoint(state, c4, 8), 1, [&](Status status) { applied = status; }, c4);
  sim_.Run();
  ASSERT_TRUE(applied.ok()) << applied;
  EXPECT_EQ(store_.durable_epoch(), 4);
  const auto advanced = store_.Peek(0, 4);
  ASSERT_TRUE(advanced.has_value());
  EXPECT_EQ(*advanced, c4);
  EXPECT_TRUE(advanced->payload.SharesBufferWith(c4.payload));
  EXPECT_EQ(store_.ChainLength(0), 4u);
}

// Disk mode writes each applied head as a full serialized shard. 32 MiB is
// the smallest payload the serializer fans out across a 4-thread pool, so
// the write runs on the pool's workers.
TEST(DiskBackedPersistentDeltaTest, SaveDeltaWritesTheHeadAndRetrieveRereadsIt) {
  const std::string dir = ::testing::TempDir() + "/gemini_delta_disk";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  Simulator sim;
  PersistentStoreConfig config;
  config.disk_dir = dir;
  PersistentStore store(sim, config);
  ThreadPool workers(4);
  store.set_workers(&workers);
  store.ConfigureRedoLog(RedoLogConfig{});

  constexpr size_t kElements = (size_t{32} << 20) / sizeof(float);
  constexpr size_t kChunk = size_t{1} << 16;
  const Checkpoint c0 = MakeCheckpoint(0, 0, kElements);
  const Checkpoint c1 = MutateChunks(c0, 1, kChunk, {3, 70});
  store.SeedImmediate(c0, 1);
  Status saved = InternalError("pending");
  store.SaveDelta(*BuildDeltaCheckpoint(c0, c1, kChunk), 1,
                  [&](Status status) { saved = status; });
  sim.Run();
  ASSERT_TRUE(saved.ok()) << saved;
  EXPECT_EQ(store.durable_epoch(), 1);
  const std::string path = store.ShardPath(0, 1);
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  EXPECT_GT(std::filesystem::file_size(path), c1.payload.size_bytes());

  std::optional<Checkpoint> fetched;
  store.Retrieve(0, 1, [&](StatusOr<Checkpoint> result) {
    ASSERT_TRUE(result.ok()) << result.status();
    fetched = std::move(result).value();
  });
  sim.Run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, c1);

  // Flip one payload byte in the file: every re-read fails its CRC.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    const std::streamoff offset = 1 << 20;
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    file.seekp(offset);
    file.write(&byte, 1);
  }
  Status reread = Status::Ok();
  store.Retrieve(0, 1, [&](StatusOr<Checkpoint> result) { reread = result.status(); });
  sim.Run();
  EXPECT_EQ(reread.code(), StatusCode::kDataLoss);
  std::filesystem::remove_all(dir, ec);
}

// ---- Trainer dirty tracking -----------------------------------------------

TEST(TrainerDirtyTest, TakeDirtyChunksReturnsAccumulatedBitsAndClears) {
  ShardedTrainer trainer(Gpt2_10B(), /*num_machines=*/2, /*payload_elements=*/32, /*seed=*/7);
  trainer.SetSparseUpdates(0.25, /*chunk_elements=*/4);
  trainer.EnableDirtyTracking(4);
  ASSERT_EQ(trainer.dirty_chunk_count(), 8u);
  const Checkpoint before = trainer.MakeCheckpoint(0);
  trainer.Step();
  const Checkpoint after = trainer.MakeCheckpoint(0);
  const std::vector<uint8_t> bits = trainer.TakeDirtyChunks(0);
  ASSERT_EQ(bits.size(), 8u);
  // The bits are a conservative superset of the truly changed chunks.
  for (size_t chunk = 0; chunk < bits.size(); ++chunk) {
    const size_t begin = chunk * 4;
    const bool changed =
        !std::equal(before.payload.begin() + begin, before.payload.begin() + begin + 4,
                    after.payload.begin() + begin);
    if (changed) {
      EXPECT_NE(bits[chunk], 0) << "changed chunk " << chunk << " missing its dirty bit";
    }
  }
  // Take-and-clear: with no step in between, nothing is dirty.
  const std::vector<uint8_t> cleared = trainer.TakeDirtyChunks(0);
  EXPECT_TRUE(std::all_of(cleared.begin(), cleared.end(), [](uint8_t b) { return b == 0; }));
  // A restore conservatively marks the whole shard dirty.
  ASSERT_TRUE(trainer.RestoreShard(after).ok());
  const std::vector<uint8_t> after_restore = trainer.TakeDirtyChunks(0);
  EXPECT_TRUE(
      std::all_of(after_restore.begin(), after_restore.end(), [](uint8_t b) { return b != 0; }));
}

// ---- PayloadRef slice / Crc32Combine edge cases ---------------------------

TEST(PayloadSliceEdgeTest, ZeroLengthAndEndSlices) {
  const PayloadRef payload(std::vector<float>{1.f, 2.f, 3.f, 4.f, 5.f});
  const PayloadRef mid_empty = payload.Slice(2, 0);
  EXPECT_TRUE(mid_empty.empty());
  EXPECT_EQ(mid_empty.size_bytes(), 0u);
  EXPECT_TRUE(mid_empty.SharesBufferWith(payload)) << "an empty view still pins the buffer";
  // Slice exactly at the end: offset == size, zero elements — legal, empty.
  const PayloadRef end_empty = payload.Slice(5, 0);
  EXPECT_TRUE(end_empty.empty());
  EXPECT_EQ(end_empty, std::vector<float>{});
  // The final elements through a slice-at-end view.
  const PayloadRef tail = payload.Slice(3, 2);
  EXPECT_EQ(tail, (std::vector<float>{4.f, 5.f}));
  // Slices of slices keep composing offsets; the tail of the tail is {5}.
  EXPECT_EQ(tail.Slice(1, 1), std::vector<float>{5.f});
  EXPECT_EQ(tail.Slice(2, 0).size(), 0u);
  // Zero-length views compare equal regardless of position.
  EXPECT_EQ(mid_empty, end_empty);
  // An empty default ref has no buffer at all.
  const PayloadRef null_ref;
  EXPECT_EQ(null_ref.data(), nullptr);
  EXPECT_FALSE(null_ref.SharesBufferWith(payload));
}

TEST(Crc32CombineEdgeTest, EmptySegmentsAreIdentityElements) {
  const std::vector<uint8_t> data = {0xDE, 0xAD, 0xBE, 0xEF, 0x42, 0x00, 0x17};
  const uint32_t whole = Crc32(data.data(), data.size());
  const uint32_t empty = Crc32(data.data(), 0);
  // CRC of zero bytes never perturbs a combination, on either side.
  EXPECT_EQ(Crc32Combine(whole, empty, 0), whole);
  EXPECT_EQ(Crc32Combine(empty, whole, data.size()), whole);
  EXPECT_EQ(Crc32Combine(empty, empty, 0), empty);
  // Interleaving empty segments into a multi-way split changes nothing.
  const uint32_t a = Crc32(data.data(), 3);
  const uint32_t b = Crc32(data.data() + 3, 4);
  uint32_t combined = Crc32Combine(a, empty, 0);
  combined = Crc32Combine(combined, b, 4);
  combined = Crc32Combine(combined, empty, 0);
  EXPECT_EQ(combined, whole);
}

TEST(Crc32CombineEdgeTest, MultiSegmentCombineMatchesOneShot) {
  std::vector<uint8_t> data(1024);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const uint32_t whole = Crc32(data.data(), data.size());
  // Uneven segmentation, including a 1-byte and a 0-byte segment.
  const size_t cuts[] = {0, 1, 7, 7, 512, 1024};
  uint32_t combined = Crc32(data.data(), cuts[1]);
  for (size_t i = 1; i + 1 < std::size(cuts); ++i) {
    const size_t length = cuts[i + 1] - cuts[i];
    combined = Crc32Combine(combined, Crc32(data.data() + cuts[i], length), length);
  }
  EXPECT_EQ(combined, whole);
}

// ---- Config validation ----------------------------------------------------

TEST(IncrementalConfigTest, ValidateRejectsDegenerateKnobs) {
  GeminiConfig config;
  config.incremental.enabled = true;
  EXPECT_TRUE(config.Validate().ok()) << "defaults must validate with the mode on";

  // A compaction cap of 0 would let chains grow without bound.
  config.incremental.max_chain_length = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.incremental.max_chain_length = 8;

  config.incremental.chunk_elements = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.incremental.chunk_elements = 16;

  config.incremental.max_chain_bytes = -1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.incremental.max_chain_bytes = 0;

  // The sparse-update knob shapes the workload even with the mode off.
  config.incremental.enabled = false;
  config.incremental.sparse_update_fraction = 0.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.incremental.sparse_update_fraction = 1.5;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.incremental.sparse_update_fraction = 1.0;

  // With the mode off, the chain knobs are inert and must not reject.
  config.incremental.max_chain_length = 0;
  EXPECT_TRUE(config.Validate().ok());
}

// ---- End-to-end: delta-chain recovery is bit-exact ------------------------

GeminiConfig EndToEndConfig(bool incremental) {
  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 8;
  config.num_replicas = 2;
  config.payload_elements = 32;
  config.seed = 2024;
  config.cloud.num_standby = 4;
  // The sparse workload runs in BOTH modes so the trajectories are the
  // identical MoE-style stream; only the checkpoint encoding differs.
  config.incremental.sparse_update_fraction = 0.25;
  config.incremental.chunk_elements = 4;
  config.incremental.enabled = incremental;
  return config;
}

TEST(DeltaEndToEndTest, IncrementalRecoveryBitExactVsFullSnapshotRecovery) {
  // Acceptance gate: with the same failure injected, a run protected by
  // delta chains must recover to bit-exactly the state a full-snapshot run
  // recovers to (both equal to the uninterrupted reference).
  constexpr int64_t kTarget = 10;
  std::vector<std::vector<float>> shards[2];
  for (const bool incremental : {false, true}) {
    const GeminiConfig config = EndToEndConfig(incremental);
    GeminiSystem system(config);
    ASSERT_TRUE(system.Initialize().ok());
    system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7});
    const auto report = system.TrainUntil(kTarget, /*sim_deadline=*/Hours(4));
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->iterations_completed, kTarget);
    ASSERT_GE(report->recoveries.size(), 1u);
    for (int rank = 0; rank < config.num_machines; ++rank) {
      shards[incremental ? 1 : 0].push_back(system.trainer().shard(rank));
    }
    if (incremental) {
      const SystemSnapshot snapshot = system.Snapshot();
      EXPECT_GT(snapshot.delta_commits, 0) << "the incremental run never shipped a delta";
      EXPECT_GT(snapshot.delta_bytes_saved, 0);
      EXPECT_LT(system.incremental_delta_fraction(), 1.0);
    } else {
      EXPECT_DOUBLE_EQ(system.incremental_delta_fraction(), 1.0);
    }
  }
  // Uninterrupted reference under the same sparse workload.
  const GeminiConfig config = EndToEndConfig(false);
  ShardedTrainer reference(config.model, config.num_machines, config.payload_elements,
                           config.seed);
  reference.SetSparseUpdates(config.incremental.sparse_update_fraction,
                             static_cast<size_t>(config.incremental.chunk_elements));
  for (int64_t i = 0; i < kTarget; ++i) {
    reference.Step();
  }
  for (int rank = 0; rank < config.num_machines; ++rank) {
    EXPECT_EQ(shards[0][static_cast<size_t>(rank)], reference.shard(rank))
        << "full-snapshot run diverged at rank " << rank;
    EXPECT_EQ(shards[1][static_cast<size_t>(rank)], reference.shard(rank))
        << "delta-chain run diverged at rank " << rank;
  }
}

}  // namespace
}  // namespace gemini
