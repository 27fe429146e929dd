// Unit tests for time-sharded mining (MineK2Hop with num_shards > 1): shard
// planning over the benchmark grid, seam edge cases for the stitch
// (convoys spanning a boundary, convoys shorter than the overlap margin,
// empty shards, more shards than ticks), and exact equality with the
// one-shard run in every configuration.
#include <memory>

#include <gtest/gtest.h>

#include "core/k2hop.h"
#include "gen/synthetic.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::C;
using ::k2::testing::MakeMemStore;
using ::k2::testing::MakeTracks;
using ::k2::testing::Str;

std::vector<Convoy> BatchMine(Store* store, const MiningParams& params) {
  auto result = MineK2Hop(store, params);
  K2_CHECK(result.ok());
  return result.MoveValue();
}

/// Mines `store` partitioned with the given shard count and asserts exact
/// (byte-identical) equality with batch; returns the stats for inspection.
K2HopStats ExpectMatchesBatch(Store* store, const MiningParams& params,
                              int num_shards, int num_threads = 1) {
  const std::vector<Convoy> expected = BatchMine(store, params);
  K2HopOptions options;
  options.num_shards = num_shards;
  options.num_threads = num_threads;
  K2HopStats stats;
  auto mined = MineK2Hop(store, params, options, &stats);
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_EQ(mined.value(), expected)
      << "shards=" << num_shards << " threads=" << num_threads
      << "\npartitioned:\n"
      << Str(mined.value()) << "batch:\n"
      << Str(expected);
  return stats;
}

// ---------------------------------------------------------------------------
// PlanShards
// ---------------------------------------------------------------------------

TEST(PlanShardsTest, CoversAllWindowsContiguouslyWithSharedBoundaries) {
  // 9 benchmarks = 8 windows over ticks 0..40, hop 5.
  std::vector<Timestamp> benchmarks;
  for (Timestamp b = 0; b <= 40; b += 5) benchmarks.push_back(b);
  const std::vector<ShardPlan> plan = PlanShards(benchmarks, 3);
  ASSERT_EQ(plan.size(), 3u);
  // Near-equal split: 3 + 3 + 2 windows, remainder to the earlier shards.
  EXPECT_EQ(plan[0].num_windows, 3u);
  EXPECT_EQ(plan[1].num_windows, 3u);
  EXPECT_EQ(plan[2].num_windows, 2u);
  size_t next = 0;
  for (const ShardPlan& shard : plan) {
    EXPECT_EQ(shard.first_window, next);
    next += shard.num_windows;
    // Tick ranges are ⌊k/2⌋-aligned: both ends sit on the benchmark grid.
    EXPECT_EQ(shard.ticks.start, benchmarks[shard.first_window]);
    EXPECT_EQ(shard.ticks.end,
              benchmarks[shard.first_window + shard.num_windows]);
  }
  EXPECT_EQ(next, benchmarks.size() - 1);
  // The overlap margin: adjacent shards share exactly the boundary
  // benchmark tick.
  for (size_t i = 0; i + 1 < plan.size(); ++i) {
    EXPECT_EQ(plan[i].ticks.end, plan[i + 1].ticks.start);
  }
}

TEST(PlanShardsTest, ClampsToWindowCount) {
  const std::vector<Timestamp> benchmarks = {0, 5, 10};  // 2 windows
  const std::vector<ShardPlan> plan = PlanShards(benchmarks, 50);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].num_windows, 1u);
  EXPECT_EQ(plan[1].num_windows, 1u);
}

TEST(PlanShardsTest, DegenerateGrids) {
  EXPECT_TRUE(PlanShards({}, 4).empty());
  EXPECT_TRUE(PlanShards({7}, 4).empty());  // one benchmark, no window
  const std::vector<ShardPlan> one = PlanShards({0, 3}, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].num_windows, 1u);
}

// ---------------------------------------------------------------------------
// Seam edge cases
// ---------------------------------------------------------------------------

TEST(PartitionSeamTest, ConvoyExactlySpanningAShardBoundary) {
  // Two objects together for all 20 ticks; k = 8 gives hop 4 and benchmark
  // grid 0,4,8,12,16 — with 2 shards the seam at tick 8 cuts the convoy in
  // the middle, so the stitch must carry it across and report the full
  // lifespan [0, 19].
  std::vector<std::vector<double>> tracks(3);
  for (int t = 0; t < 20; ++t) {
    tracks[0].push_back(t * 10.0);
    tracks[1].push_back(t * 10.0 + 0.5);
    tracks[2].push_back(1000.0 + t * 50.0);  // loner far away
  }
  auto store = MakeMemStore(MakeTracks(tracks));
  const MiningParams params{2, 8, 2.0};

  const K2HopStats stats =
      ExpectMatchesBatch(store.get(), params, /*num_shards=*/2);
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.seams_crossed, 1u);   // the convoy spans the seam
  EXPECT_EQ(stats.stitch_replays, 1u);  // shard 2 had to be replayed

  auto mined = MineK2Hop(store.get(), params,
                         {.num_threads = 1, .num_shards = 2});
  ASSERT_TRUE(mined.ok());
  ASSERT_EQ(mined.value().size(), 1u);
  EXPECT_EQ(mined.value()[0], C({0, 1}, 0, 19));
}

TEST(PartitionSeamTest, ConvoyShorterThanTheOverlapMargin) {
  // A group together for only 3 ticks straddling the seam — shorter than
  // the ⌊k/2⌋ = 4 overlap margin and shorter than k, so it must appear in
  // neither result; the stitcher must not resurrect or extend it.
  std::vector<std::vector<double>> tracks(3);
  for (int t = 0; t < 17; ++t) {
    const bool together = t >= 7 && t <= 9;  // seam for k=8 sits at tick 8
    tracks[0].push_back(t * 10.0);
    tracks[1].push_back(together ? t * 10.0 + 0.5 : 500.0 + t * 40.0);
    tracks[2].push_back(together ? t * 10.0 + 1.0 : -900.0 - t * 40.0);
  }
  auto store = MakeMemStore(MakeTracks(tracks));
  const MiningParams params{2, 8, 2.0};

  const K2HopStats stats =
      ExpectMatchesBatch(store.get(), params, /*num_shards=*/2);
  EXPECT_EQ(stats.shards, 2u);
  auto mined = MineK2Hop(store.get(), params, {.num_shards = 2});
  ASSERT_TRUE(mined.ok());
  EXPECT_TRUE(mined.value().empty()) << Str(mined.value());
}

TEST(PartitionSeamTest, EmptyShardWithNoBenchmarkPoints) {
  // Ticks 12..23 carry no data at all: with k = 6 (hop 3) and 3 shards the
  // middle shard's benchmarks all cluster to nothing. The stitcher must
  // pass the dead zone through and keep the two outer convoys intact.
  std::vector<std::vector<double>> tracks(2);
  for (int t = 0; t < 36; ++t) {
    const bool gap = t >= 12 && t < 24;
    tracks[0].push_back(gap ? ::k2::testing::kGone : t * 1.0);
    tracks[1].push_back(gap ? ::k2::testing::kGone : t * 1.0 + 0.5);
  }
  auto store = MakeMemStore(MakeTracks(tracks));
  const MiningParams params{2, 6, 2.0};

  ExpectMatchesBatch(store.get(), params, /*num_shards=*/3);
  auto mined = MineK2Hop(store.get(), params, {.num_shards = 3});
  ASSERT_TRUE(mined.ok());
  // Both sides of the gap survive as separate convoys.
  EXPECT_EQ(mined.value(), (std::vector<Convoy>{C({0, 1}, 0, 11),
                                                C({0, 1}, 24, 35)}))
      << Str(mined.value());
}

TEST(PartitionSeamTest, ShardCountLargerThanTickCount) {
  // 10 ticks, k = 4 → 5 windows; asking for 64 shards must clamp to one
  // window per shard and still reproduce batch exactly.
  std::vector<std::vector<double>> tracks(3);
  for (int t = 0; t < 10; ++t) {
    tracks[0].push_back(t * 5.0);
    tracks[1].push_back(t * 5.0 + 0.4);
    tracks[2].push_back(t < 5 ? t * 5.0 + 0.8 : 400.0);
  }
  auto store = MakeMemStore(MakeTracks(tracks));
  const MiningParams params{2, 4, 2.0};

  const K2HopStats stats =
      ExpectMatchesBatch(store.get(), params, /*num_shards=*/64);
  EXPECT_EQ(stats.shards, stats.hop_windows);
  EXPECT_GT(stats.shards, 1u);
}

// ---------------------------------------------------------------------------
// Shard/thread-count determinism
// ---------------------------------------------------------------------------

TEST(PartitionTest, IdenticalForEveryShardAndThreadCount) {
  for (uint64_t seed : {5u, 21u}) {
    RandomWalkSpec spec;
    spec.num_objects = 18;
    spec.num_ticks = 30;
    spec.area = 30.0;
    spec.step = 4.0;
    spec.seed = seed;
    auto store = MakeMemStore(GenerateRandomWalk(spec));
    const MiningParams params{2, 5, 6.0};
    ASSERT_FALSE(BatchMine(store.get(), params).empty())
        << "weak test input, seed=" << seed;
    for (int shards : {1, 2, 3, 7}) {
      for (int threads : {1, 4}) {
        ExpectMatchesBatch(store.get(), params, shards, threads);
      }
    }
  }
}

TEST(PartitionTest, StatsAreFilled) {
  RandomWalkSpec spec;
  spec.num_objects = 16;
  spec.num_ticks = 24;
  spec.area = 25.0;
  spec.step = 3.0;
  spec.seed = 3;
  auto store = MakeMemStore(GenerateRandomWalk(spec));
  const MiningParams params{2, 6, 6.0};

  K2HopStats stats;
  auto mined = MineK2Hop(store.get(), params,
                         {.num_threads = 2, .num_shards = 3}, &stats);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(stats.shards, 3u);
  EXPECT_LE(stats.seams_crossed, 2u);
  EXPECT_EQ(stats.adopted_folds + stats.stitch_replays, 3u);
  EXPECT_EQ(stats.stitch_replays, stats.seams_crossed);
  EXPECT_EQ(stats.hop_windows, stats.benchmark_points - 1);
  EXPECT_GT(stats.total_points, 0u);
  EXPECT_GT(stats.io.points_read(), 0u);  // all mining IO is visible

  // Validation dedupes pieces across candidates exactly as batch does.
  K2HopStats batch;
  ASSERT_TRUE(MineK2Hop(store.get(), params, {}, &batch).ok());
  EXPECT_EQ(stats.validation.candidates_in, batch.validation.candidates_in);
  EXPECT_EQ(stats.validation.split_rounds, batch.validation.split_rounds);
  EXPECT_EQ(stats.validation.reclusterings, batch.validation.reclusterings);
}

TEST(PartitionTest, InvalidParamsRejected) {
  auto store = MakeMemStore(MakeTracks({{0.0, 1.0}}));
  EXPECT_FALSE(MineK2Hop(store.get(), {1, 2, 1.0}, {.num_shards = 3}).ok());
  EXPECT_FALSE(MineK2Hop(store.get(), {2, 2, -1.0}, {.num_shards = 3}).ok());
}

TEST(PartitionTest, ShortDatasetYieldsNothing) {
  auto store = MakeMemStore(MakeTracks({{0.0, 1.0}, {0.5, 1.5}}));
  auto mined = MineK2Hop(store.get(), {2, 5, 2.0}, {.num_shards = 3});
  ASSERT_TRUE(mined.ok());
  EXPECT_TRUE(mined.value().empty());
}

}  // namespace
}  // namespace k2
