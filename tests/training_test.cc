// Tests for model configurations (Table 2), the ZeRO-3 timeline generator,
// the online profiler, and the sharded trainer's snapshot semantics,
// recovery-replay property and bit-exactness against a scalar reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/training/model_config.h"
#include "src/training/profiler.h"
#include "src/training/timeline.h"
#include "src/training/trainer.h"

namespace gemini {
namespace {

// ---------------------------------------------------------------------------
// ModelConfig (Table 2)
// ---------------------------------------------------------------------------

TEST(ModelConfigTest, Table2HasAllRows) {
  EXPECT_EQ(Table2Models().size(), 8u);
  for (const char* name : {"GPT-2 10B", "GPT-2 20B", "GPT-2 40B", "RoBERTa 40B", "BERT 40B",
                           "GPT-2 100B", "RoBERTa 100B", "BERT 100B"}) {
    EXPECT_NE(FindModel(name), nullptr) << name;
  }
  EXPECT_EQ(FindModel("GPT-5"), nullptr);
}

TEST(ModelConfigTest, Gpt2100BMatchesTable2) {
  const ModelConfig model = Gpt2_100B();
  EXPECT_EQ(model.hidden_size, 8192);
  EXPECT_EQ(model.intermediate_size, 32768);
  EXPECT_EQ(model.num_layers, 124);
  EXPECT_EQ(model.attention_heads, 64);
  EXPECT_EQ(model.nominal_params, 100'000'000'000LL);
}

TEST(ModelConfigTest, Gpt210BMatchesTable2) {
  const ModelConfig model = Gpt2_10B();
  EXPECT_EQ(model.hidden_size, 2560);
  EXPECT_EQ(model.intermediate_size, 10240);
  EXPECT_EQ(model.num_layers, 46);
  EXPECT_EQ(model.attention_heads, 40);
}

TEST(ModelConfigTest, CheckpointSizeMatchesPaper) {
  // Section 5.2: the GPT2-100B checkpoint on each of 128 GPUs is 9.4 GB.
  const ModelConfig model = Gpt2_100B();
  const double gb = static_cast<double>(model.CheckpointBytesPerGpu(128)) / 1e9;
  EXPECT_NEAR(gb, 9.4, 0.05);
}

TEST(ModelConfigTest, CheckpointIs12BytesPerParam) {
  const ModelConfig model = Gpt2_40B();
  EXPECT_EQ(model.CheckpointBytesTotal(), model.nominal_params * 12);
  EXPECT_EQ(model.CheckpointBytesPerMachine(16), model.nominal_params * 12 / 16);
}

TEST(ModelConfigTest, FormulaParamsNearNominalForLargeModels) {
  // The transformer formula should land within ~5% of the headline size for
  // the big configurations (the 10B config is loosely named in the paper).
  for (ModelConfig (*make)() : {&Gpt2_100B, &Gpt2_40B, &Gpt2_20B}) {
    const ModelConfig model = make();
    const double ratio = static_cast<double>(model.FormulaParams()) /
                         static_cast<double>(model.nominal_params);
    EXPECT_GT(ratio, 0.95) << model.name;
    EXPECT_LT(ratio, 1.05) << model.name;
  }
}

TEST(ModelConfigTest, TokensPerGpu) {
  EXPECT_EQ(Gpt2_100B().TokensPerGpuPerIteration(), 8 * 512);
}

// ---------------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------------

TimelineParams Params(const ModelConfig& model, const InstanceSpec& instance, int machines) {
  TimelineParams params;
  params.model = model;
  params.instance = instance;
  params.num_machines = machines;
  return params;
}

TEST(TimelineTest, SegmentsAreOrderedAndNonOverlapping) {
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 16));
  ASSERT_FALSE(timeline.comm.empty());
  TimeNs cursor = 0;
  for (const CommSegment& segment : timeline.comm) {
    EXPECT_GE(segment.start, cursor);
    EXPECT_GT(segment.duration, 0);
    cursor = segment.end();
  }
  EXPECT_LE(cursor, timeline.iteration_time);
}

TEST(TimelineTest, IdlePlusBusyEqualsIteration) {
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_40B(), P3dn24xlarge(), 16));
  EXPECT_EQ(timeline.TotalIdle() + timeline.TotalCommBusy(), timeline.iteration_time);
}

TEST(TimelineTest, CalibrationAnchorsP4d) {
  // Anchor 1 (src/training/calibration.h): GPT-2 100B on 16x p4d lands near
  // the paper's 62 s iteration and ~12.5 s idle time.
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 16));
  EXPECT_NEAR(ToSeconds(timeline.iteration_time), 62.0, 8.0);
  EXPECT_NEAR(ToSeconds(timeline.TotalIdle()), 12.5, 5.0);
}

TEST(TimelineTest, CalibrationAnchorsP3dn) {
  // Anchor 2: GPT-2 40B on 16x p3dn near 38-41 s iteration, ~4-6 s idle.
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_40B(), P3dn24xlarge(), 16));
  EXPECT_NEAR(ToSeconds(timeline.iteration_time), 40.0, 4.0);
  EXPECT_NEAR(ToSeconds(timeline.TotalIdle()), 5.0, 2.0);
}

TEST(TimelineTest, IdleSpansTileTheGaps) {
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_20B(), P3dn24xlarge(), 16));
  for (const IdleSpan& span : timeline.idle_spans) {
    EXPECT_GT(span.length, 0);
    EXPECT_GE(span.start, 0);
    EXPECT_LE(span.end(), timeline.iteration_time);
    // No comm segment may overlap an idle span.
    for (const CommSegment& segment : timeline.comm) {
      const bool disjoint = segment.end() <= span.start || segment.start >= span.end();
      EXPECT_TRUE(disjoint) << "comm segment overlaps idle span";
    }
  }
}

TEST(TimelineTest, MoreMachinesShrinkCompute) {
  // Per-GPU work halves when the (sharded) model spreads over twice the
  // machines... compute stays constant per GPU but communication grows; at
  // minimum the iteration time must stay positive and finite.
  const IterationTimeline t16 = BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 16));
  const IterationTimeline t32 = BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 32));
  EXPECT_GT(t16.iteration_time, 0);
  EXPECT_GT(t32.iteration_time, 0);
}

TEST(TimelineTest, LargestSpanMatchesPaperScale) {
  // The paper profiles a largest idle span of ~1.6 s (GPT-2 40B on p3dn);
  // the generated structure should produce sub-iteration spans of the same
  // order of magnitude (hundreds of ms to ~2 s).
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_40B(), P3dn24xlarge(), 16));
  TimeNs largest = 0;
  for (const IdleSpan& span : timeline.idle_spans) {
    largest = std::max(largest, span.length);
  }
  EXPECT_GT(largest, Millis(300));
  EXPECT_LT(largest, Seconds(3));
}

TEST(TimelineTest, ExtractIdleSpansHandlesEmptyComm) {
  const std::vector<IdleSpan> spans = ExtractIdleSpans({}, Seconds(10));
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start, 0);
  EXPECT_EQ(spans[0].length, Seconds(10));
}

TEST(TimelineTest, ExtractIdleSpansSkipsZeroGaps) {
  std::vector<CommSegment> comm = {
      {0, Seconds(1), CommKind::kForwardAllGather, 0},
      {Seconds(1), Seconds(1), CommKind::kForwardAllGather, 1},  // back-to-back
      {Seconds(3), Seconds(1), CommKind::kForwardAllGather, 2},
  };
  const std::vector<IdleSpan> spans = ExtractIdleSpans(comm, Seconds(5));
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].start, Seconds(2));
  EXPECT_EQ(spans[0].length, Seconds(1));
  EXPECT_EQ(spans[1].start, Seconds(4));
}

class TimelineSweepTest
    : public ::testing::TestWithParam<std::tuple<const char*, const char*, int>> {};

TEST_P(TimelineSweepTest, InvariantsAcrossWorkloads) {
  const auto [model_name, instance_name, machines] = GetParam();
  const ModelConfig* model = FindModel(model_name);
  const InstanceSpec* instance = FindInstanceSpec(instance_name);
  ASSERT_NE(model, nullptr);
  ASSERT_NE(instance, nullptr);
  const IterationTimeline timeline = BuildZero3Timeline(Params(*model, *instance, machines));
  EXPECT_GT(timeline.iteration_time, 0);
  EXPECT_GT(timeline.TotalCommBusy(), 0);
  EXPECT_EQ(timeline.TotalIdle() + timeline.TotalCommBusy(), timeline.iteration_time);
  EXPECT_EQ(timeline.iteration_time, timeline.update_start + timeline.update_duration);
  EXPECT_FALSE(timeline.idle_spans.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TimelineSweepTest,
    ::testing::Values(
        std::make_tuple("GPT-2 10B", "p3dn.24xlarge", 16),
        std::make_tuple("GPT-2 20B", "p3dn.24xlarge", 16),
        std::make_tuple("GPT-2 40B", "p3dn.24xlarge", 16),
        std::make_tuple("RoBERTa 40B", "p3dn.24xlarge", 16),
        std::make_tuple("BERT 40B", "p3dn.24xlarge", 16),
        std::make_tuple("GPT-2 100B", "p4d.24xlarge", 16),
        std::make_tuple("RoBERTa 100B", "p4d.24xlarge", 16),
        std::make_tuple("BERT 100B", "p4d.24xlarge", 16),
        std::make_tuple("GPT-2 100B", "p4d.24xlarge", 4),
        std::make_tuple("GPT-2 100B", "p4d.24xlarge", 64)));

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

TEST(ProfilerTest, MeansTrackNominalSpans) {
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 16));
  Rng rng(7);
  const ProfileResult result = ProfileIdleSpans(timeline, ProfilerConfig{}, rng);
  ASSERT_EQ(result.spans.size(), timeline.idle_spans.size());
  for (size_t i = 0; i < result.spans.size(); ++i) {
    const double nominal = static_cast<double>(timeline.idle_spans[i].length);
    EXPECT_NEAR(static_cast<double>(result.spans[i].length), nominal, nominal * 0.1);
    EXPECT_EQ(result.spans[i].start, timeline.idle_spans[i].start);
  }
}

TEST(ProfilerTest, NormalizedStddevBelowTenPercent) {
  // Section 5.4: "The normalized standard deviation of the measurements is
  // less than 10%."
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 16));
  Rng rng(11);
  const ProfileResult result = ProfileIdleSpans(timeline, ProfilerConfig{}, rng);
  EXPECT_LT(result.max_normalized_stddev, 0.10);
  EXPECT_GT(result.max_normalized_stddev, 0.0);
  EXPECT_EQ(result.iterations_profiled, 20);
}

TEST(ProfilerTest, DeterministicGivenSeed) {
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_40B(), P3dn24xlarge(), 16));
  Rng rng_a(3);
  Rng rng_b(3);
  const ProfileResult a = ProfileIdleSpans(timeline, ProfilerConfig{}, rng_a);
  const ProfileResult b = ProfileIdleSpans(timeline, ProfilerConfig{}, rng_b);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].length, b.spans[i].length);
  }
}

// ---------------------------------------------------------------------------
// ShardedTrainer
// ---------------------------------------------------------------------------

TEST(TrainerTest, StepAdvancesIterationAndMutatesState) {
  ShardedTrainer trainer(Gpt2_10B(), 4, 32, /*seed=*/1);
  const std::vector<float> before = trainer.shard(0);
  trainer.Step();
  EXPECT_EQ(trainer.iteration(), 1);
  EXPECT_NE(trainer.shard(0), before);
}

TEST(TrainerTest, DeterministicAcrossInstances) {
  ShardedTrainer a(Gpt2_10B(), 4, 32, 7);
  ShardedTrainer b(Gpt2_10B(), 4, 32, 7);
  for (int i = 0; i < 5; ++i) {
    a.Step();
    b.Step();
  }
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(a.shard(rank), b.shard(rank));
  }
}

TEST(TrainerTest, DifferentSeedsDiverge) {
  ShardedTrainer a(Gpt2_10B(), 2, 32, 1);
  ShardedTrainer b(Gpt2_10B(), 2, 32, 2);
  a.Step();
  b.Step();
  EXPECT_NE(a.shard(0), b.shard(0));
}

TEST(TrainerTest, CheckpointCarriesLogicalSize) {
  ShardedTrainer trainer(Gpt2_100B(), 16, 32, 1);
  const Checkpoint checkpoint = trainer.MakeCheckpoint(3);
  EXPECT_EQ(checkpoint.owner_rank, 3);
  EXPECT_EQ(checkpoint.iteration, 0);
  EXPECT_EQ(checkpoint.logical_bytes, Gpt2_100B().CheckpointBytesPerMachine(16));
  EXPECT_EQ(checkpoint.payload, trainer.shard(3));
}

// Snapshot semantics: a capture is the live buffer itself, and whatever the
// trainer does next copies on write instead of touching the captured bytes.
// Parameterized over the dense path and the sparse path (only touched chunks
// change, so a missed copy-on-write would corrupt a capture partially).
class TrainerSnapshotTest : public ::testing::TestWithParam<bool> {
 protected:
  ShardedTrainer MakeTrainer() const {
    ShardedTrainer trainer(Gpt2_10B(), /*num_machines=*/2, /*payload_elements=*/64,
                           /*seed=*/5);
    if (GetParam()) {
      trainer.SetSparseUpdates(0.25, /*chunk_elements=*/8);
    }
    trainer.Step();
    return trainer;
  }
};

TEST_P(TrainerSnapshotTest, CaptureSharesTheLiveBuffer) {
  ShardedTrainer trainer = MakeTrainer();
  const Checkpoint first = trainer.MakeCheckpoint(0);
  const Checkpoint second = trainer.MakeCheckpoint(0);
  EXPECT_TRUE(first.payload.SharesBufferWith(second.payload))
      << "two captures at one iteration must share one buffer";
  EXPECT_EQ(first.payload.data(), trainer.shard(0).data()) << "a capture must not copy";
  EXPECT_TRUE(first.IntegrityOk());
  EXPECT_FALSE(first.payload.SharesBufferWith(trainer.MakeCheckpoint(1).payload));
}

TEST_P(TrainerSnapshotTest, UpdatesAfterACaptureLeaveItBitIdentical) {
  // Each trainer-side mutation that can follow a capture.
  const std::vector<std::pair<const char*, std::function<Status(ShardedTrainer&)>>> mutations = {
      {"Step", [](ShardedTrainer& t) {
         t.Step();
         return Status::Ok();
       }},
      {"ReplayTo", [](ShardedTrainer& t) { return t.ReplayTo(t.iteration() + 3); }},
      {"RestoreShard", [](ShardedTrainer& t) {
         ShardedTrainer other(Gpt2_10B(), 2, 64, /*seed=*/99);
         return t.RestoreShard(other.MakeCheckpoint(0));
       }},
  };
  for (const auto& [name, mutate] : mutations) {
    ShardedTrainer trainer = MakeTrainer();
    const Checkpoint capture = trainer.MakeCheckpoint(0);
    const std::vector<float> frozen = capture.payload.ToVector();
    ASSERT_TRUE(mutate(trainer).ok()) << name;
    EXPECT_EQ(capture.payload, frozen) << name << " wrote into a captured buffer";
    EXPECT_TRUE(capture.IntegrityOk()) << name;
    EXPECT_NE(trainer.shard(0), frozen) << name << " did not change the live shard";
    EXPECT_NE(trainer.shard(0).data(), capture.payload.data()) << name;
  }
}

TEST_P(TrainerSnapshotTest, UncapturedShardUpdatesInPlace) {
  ShardedTrainer trainer = MakeTrainer();
  trainer.MakeCheckpoint(0);  // dropped at once: nothing holds the buffer
  const float* live = trainer.shard(0).data();
  trainer.Step();
  ASSERT_TRUE(trainer.ReplayTo(trainer.iteration() + 2).ok());
  EXPECT_EQ(trainer.shard(0).data(), live) << "copy-on-write without a capture to protect";
}

INSTANTIATE_TEST_SUITE_P(DenseAndSparse, TrainerSnapshotTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Sparse" : "Dense";
                         });

// The core recovery-correctness property: restore-at-k then replay-to-j is
// bit-identical to an uninterrupted run. Parameterized over checkpoint and
// target iterations.
class TrainerReplayTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrainerReplayTest, RestoreThenReplayIsBitExact) {
  const auto [checkpoint_at, replay_to] = GetParam();
  const int num_machines = 5;
  ShardedTrainer reference(Gpt2_20B(), num_machines, 64, 17);
  ShardedTrainer crashed(Gpt2_20B(), num_machines, 64, 17);

  // Run both to the checkpoint; snapshot the crashed one.
  for (int i = 0; i < checkpoint_at; ++i) {
    reference.Step();
    crashed.Step();
  }
  std::vector<Checkpoint> snapshot;
  for (int rank = 0; rank < num_machines; ++rank) {
    snapshot.push_back(crashed.MakeCheckpoint(rank));
  }
  // The crashed trainer keeps going past the checkpoint, then "fails".
  for (int i = checkpoint_at; i < replay_to; ++i) {
    reference.Step();
    crashed.Step();
  }
  crashed.Step();  // Extra divergence past the failure point.
  ASSERT_TRUE(crashed.RestoreAll(snapshot).ok());
  EXPECT_EQ(crashed.iteration(), checkpoint_at);
  // Replay.
  while (crashed.iteration() < replay_to) {
    crashed.Step();
  }
  for (int rank = 0; rank < num_machines; ++rank) {
    EXPECT_EQ(crashed.shard(rank), reference.shard(rank)) << "rank " << rank << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Replays, TrainerReplayTest,
                         ::testing::Values(std::make_tuple(0, 3), std::make_tuple(2, 2),
                                           std::make_tuple(2, 6), std::make_tuple(5, 9),
                                           std::make_tuple(1, 10)));

// The trainer's update written the plain way, independently of
// ShardedTrainer: one element at a time, the whole mix recomputed per
// element, in three separate loops (initial states, dense step, sparse
// step). The trainer runs one dispatched, vectorized kernel instead; both
// must produce the same bits on every ISA, which a comparison of
// ShardedTrainer with itself cannot show.
uint64_t ReferenceMix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

float ReferenceDelta(uint64_t seed, int64_t iteration, int rank, size_t element) {
  uint64_t x = seed;
  x ^= static_cast<uint64_t>(iteration) * 0x9E3779B97F4A7C15ULL;
  x ^= (static_cast<uint64_t>(rank) + 1) * 0xBF58476D1CE4E5B9ULL;
  x ^= (static_cast<uint64_t>(element) + 1) * 0x94D049BB133111EBULL;
  x = ReferenceMix(x);
  return static_cast<float>(static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5);
}

bool ReferenceChunkTouched(uint64_t seed, int64_t iteration, int rank, size_t chunk,
                           double fraction) {
  uint64_t x = seed ^ 0xD1B54A32D192ED03ULL;
  x ^= static_cast<uint64_t>(iteration) * 0x9E3779B97F4A7C15ULL;
  x ^= (static_cast<uint64_t>(rank) + 1) * 0xBF58476D1CE4E5B9ULL;
  x ^= (static_cast<uint64_t>(chunk) + 1) * 0x94D049BB133111EBULL;
  x = ReferenceMix(x);
  return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
}

class ReferenceTrainer {
 public:
  ReferenceTrainer(int num_machines, size_t elements, uint64_t seed)
      : seed_(seed), shards_(static_cast<size_t>(num_machines), std::vector<float>(elements)) {
    for (int rank = 0; rank < num_machines; ++rank) {
      std::vector<float>& shard = shards_[static_cast<size_t>(rank)];
      for (size_t i = 0; i < shard.size(); ++i) {
        shard[i] = ReferenceDelta(seed_, -1, rank, i);
      }
    }
  }

  void SetSparseUpdates(double fraction, size_t chunk_elements) {
    fraction_ = fraction;
    chunk_elements_ = chunk_elements;
  }

  void Step() {
    for (int rank = 0; rank < static_cast<int>(shards_.size()); ++rank) {
      std::vector<float>& shard = shards_[static_cast<size_t>(rank)];
      if (fraction_ >= 1.0) {
        for (size_t i = 0; i < shard.size(); ++i) {
          shard[i] = shard[i] * 0.999f + ReferenceDelta(seed_, iteration_, rank, i);
        }
        continue;
      }
      for (size_t begin = 0; begin < shard.size(); begin += chunk_elements_) {
        if (!ReferenceChunkTouched(seed_, iteration_, rank, begin / chunk_elements_,
                                   fraction_)) {
          continue;
        }
        const size_t end = std::min(shard.size(), begin + chunk_elements_);
        for (size_t i = begin; i < end; ++i) {
          shard[i] = shard[i] * 0.999f + ReferenceDelta(seed_, iteration_, rank, i);
        }
      }
    }
    ++iteration_;
  }

  const std::vector<float>& shard(int rank) const { return shards_[static_cast<size_t>(rank)]; }

 private:
  uint64_t seed_;
  int64_t iteration_ = 0;
  double fraction_ = 1.0;
  size_t chunk_elements_ = 1;
  std::vector<std::vector<float>> shards_;
};

void ExpectSameBits(const ShardedTrainer& trainer, const ReferenceTrainer& reference,
                    const std::string& where) {
  for (int rank = 0; rank < trainer.num_machines(); ++rank) {
    const std::vector<float>& got = trainer.shard(rank);
    const std::vector<float>& want = reference.shard(rank);
    ASSERT_EQ(got.size(), want.size()) << where;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
        << where << ": rank " << rank << " differs from the scalar reference";
  }
}

std::vector<Checkpoint> CaptureAll(const ShardedTrainer& trainer) {
  std::vector<Checkpoint> captures;
  for (int rank = 0; rank < trainer.num_machines(); ++rank) {
    captures.push_back(trainer.MakeCheckpoint(rank));
  }
  return captures;
}

// Payload sizes around the vector widths, so every kernel tail is covered.
class TrainerReferenceTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int kMachines = 3;
  static constexpr uint64_t kSeed = 23;
};

TEST_P(TrainerReferenceTest, DenseStepsMatchInPlaceAndCopyOnWrite) {
  ShardedTrainer trainer(Gpt2_10B(), kMachines, GetParam(), kSeed);
  ReferenceTrainer reference(kMachines, static_cast<size_t>(GetParam()), kSeed);
  ExpectSameBits(trainer, reference, "initial states");
  for (int step = 0; step < 4; ++step) {
    // Odd steps run with every rank captured: the update copies on write.
    const std::vector<Checkpoint> held =
        step % 2 == 1 ? CaptureAll(trainer) : std::vector<Checkpoint>{};
    const float* before = trainer.shard(0).data();
    trainer.Step();
    reference.Step();
    EXPECT_EQ(trainer.shard(0).data() != before, !held.empty()) << "step " << step;
    ExpectSameBits(trainer, reference, "dense step " + std::to_string(step));
  }
}

TEST_P(TrainerReferenceTest, SparseStepsMatchForEveryChunkSize) {
  for (const size_t chunk : {size_t{1}, size_t{3}, size_t{1024}}) {
    ShardedTrainer trainer(Gpt2_10B(), kMachines, GetParam(), kSeed);
    ReferenceTrainer reference(kMachines, static_cast<size_t>(GetParam()), kSeed);
    trainer.SetSparseUpdates(0.3, chunk);
    reference.SetSparseUpdates(0.3, chunk);
    for (int step = 0; step < 3; ++step) {
      const std::vector<Checkpoint> held =
          step == 1 ? CaptureAll(trainer) : std::vector<Checkpoint>{};
      trainer.Step();
      reference.Step();
      ExpectSameBits(trainer, reference,
                     "chunk " + std::to_string(chunk) + " step " + std::to_string(step));
    }
  }
}

TEST_P(TrainerReferenceTest, ReplayToMatches) {
  ShardedTrainer trainer(Gpt2_10B(), kMachines, GetParam(), kSeed);
  ReferenceTrainer reference(kMachines, static_cast<size_t>(GetParam()), kSeed);
  ASSERT_TRUE(trainer.ReplayTo(5).ok());
  for (int step = 0; step < 5; ++step) {
    reference.Step();
  }
  ExpectSameBits(trainer, reference, "ReplayTo(5)");
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, TrainerReferenceTest,
                         ::testing::Values(1, 7, 8, 9, 17, 1000, 262147));

TEST(TrainerTest, ShardsCrcIsPinned) {
  // 16 x 1 MiB shards after five dense steps. The value is the one the
  // scalar loops produced before the update was vectorized; a build that
  // fuses the update's multiply-add (FMA contraction) changes it.
  ShardedTrainer trainer(Gpt2_100B(), 16, 262144, /*seed=*/19);
  for (int step = 0; step < 5; ++step) {
    trainer.Step();
  }
  uint32_t crc = 0;
  for (int rank = 0; rank < trainer.num_machines(); ++rank) {
    const std::vector<float>& shard = trainer.shard(rank);
    crc = Crc32Update(crc, shard.data(), shard.size() * sizeof(float));
  }
  EXPECT_EQ(crc, 0x4C59AEEAu);
}

TEST(TrainerTest, RestoreAllRejectsMixedIterations) {
  ShardedTrainer trainer(Gpt2_10B(), 2, 16, 1);
  std::vector<Checkpoint> set;
  set.push_back(trainer.MakeCheckpoint(0));
  trainer.Step();
  set.push_back(trainer.MakeCheckpoint(1));
  EXPECT_EQ(trainer.RestoreAll(set).code(), StatusCode::kFailedPrecondition);
}

TEST(TrainerTest, RestoreAllRejectsDuplicateRanks) {
  ShardedTrainer trainer(Gpt2_10B(), 2, 16, 1);
  std::vector<Checkpoint> set = {trainer.MakeCheckpoint(0), trainer.MakeCheckpoint(0)};
  EXPECT_EQ(trainer.RestoreAll(set).code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, RestoreAllRejectsWrongCount) {
  ShardedTrainer trainer(Gpt2_10B(), 3, 16, 1);
  std::vector<Checkpoint> set = {trainer.MakeCheckpoint(0)};
  EXPECT_EQ(trainer.RestoreAll(set).code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, RestoreShardRejectsSizeMismatch) {
  ShardedTrainer trainer(Gpt2_10B(), 2, 16, 1);
  Checkpoint checkpoint = trainer.MakeCheckpoint(0);
  checkpoint.payload = checkpoint.payload.Slice(0, 8);
  EXPECT_EQ(trainer.RestoreShard(checkpoint).code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, RestoreShardRejectsBadRank) {
  ShardedTrainer trainer(Gpt2_10B(), 2, 16, 1);
  Checkpoint checkpoint = trainer.MakeCheckpoint(0);
  checkpoint.owner_rank = 9;
  EXPECT_EQ(trainer.RestoreShard(checkpoint).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gemini
