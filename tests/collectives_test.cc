// Tests for the collective cost model (the NCCL stand-in): the analytic ring
// formulas, and their agreement with rings of event-driven Fabric transfers.
#include <gtest/gtest.h>

#include <functional>

#include "src/cluster/fabric.h"
#include "src/collectives/collectives.h"
#include "src/sim/simulator.h"

namespace gemini {
namespace {

// ---------------------------------------------------------------------------
// Analytic cost model
// ---------------------------------------------------------------------------

TEST(RingCostModelTest, AllGatherFormula) {
  RingCostModel model;
  model.link_bandwidth = 1e9;
  model.alpha = Micros(10);
  // 8 ranks, 8 GB total: 7 steps of 1 GB each.
  const TimeNs t = model.AllGatherTime(8'000'000'000, 8);
  EXPECT_EQ(t, 7 * (Micros(10) + Seconds(1)));
}

TEST(RingCostModelTest, SingleRankIsFree) {
  RingCostModel model;
  model.link_bandwidth = 1e9;
  EXPECT_EQ(model.AllGatherTime(1'000'000, 1), 0);
}

TEST(RingCostModelTest, AllReduceIsTwiceAllGather) {
  RingCostModel model;
  model.link_bandwidth = 1e9;
  model.alpha = Micros(5);
  const Bytes bytes = 4'000'000'000;
  EXPECT_EQ(model.AllReduceTime(bytes, 4), 2 * model.AllGatherTime(bytes, 4));
}

TEST(RingCostModelTest, EfficiencyScalesBandwidthOnly) {
  RingCostModel full{1e9, 0, 1.0};
  RingCostModel half{1e9, 0, 0.5};
  EXPECT_EQ(half.AllGatherTime(8'000'000'000, 8), 2 * full.AllGatherTime(8'000'000'000, 8));
}

// ---------------------------------------------------------------------------
// Agreement with the event-driven fabric
// ---------------------------------------------------------------------------

// Runs a ring all-gather as world-1 synchronized steps of Fabric transfers —
// every rank sends one shard to its successor, and a step starts once the
// previous one fully landed — and returns the simulated completion time.
TimeNs FabricRingAllGather(Fabric& fabric, Simulator& sim, Bytes shard_bytes,
                           double efficiency) {
  const int world = fabric.num_ranks();
  TimeNs done_at = -1;
  int pending = 0;
  std::function<void(int)> run_step = [&](int step) {
    if (step == world - 1) {
      done_at = sim.now();
      return;
    }
    pending = world;
    for (int rank = 0; rank < world; ++rank) {
      fabric.Transfer(rank, (rank + 1) % world, shard_bytes, {efficiency}, [&, step](Status s) {
        ASSERT_TRUE(s.ok()) << s;
        if (--pending == 0) {
          run_step(step + 1);
        }
      });
    }
  };
  run_step(0);
  sim.Run();
  return done_at;
}

class FabricRingTest : public ::testing::TestWithParam<int> {};

TEST_P(FabricRingTest, AllGatherTimeMatchesCostModel) {
  const int world = GetParam();
  Simulator sim;
  FabricConfig config;
  config.link_bandwidth = 4e3;
  config.alpha = Micros(10);
  Fabric fabric(sim, world, config);

  // 4 KB shards at 4 KB/s (halved by the efficiency): 2 s + alpha per step.
  const Bytes shard = 4'000;
  const double efficiency = 0.5;
  RingCostModel model{config.link_bandwidth, config.alpha, efficiency};
  EXPECT_EQ(FabricRingAllGather(fabric, sim, shard, efficiency),
            model.AllGatherTime(shard * world, world));
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, FabricRingTest, ::testing::Values(2, 3, 4, 8));

}  // namespace
}  // namespace gemini
