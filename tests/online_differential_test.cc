// Streaming-vs-batch differential: ingesting a dataset tick by tick through
// OnlineK2HopMiner and then calling Finalize() must produce a convoy set
// IDENTICAL (same vector, canonical order) to batch MineK2Hop over the
// bulk-loaded data with the same parameters — on every storage engine, on
// adversarial dense random walks, on datasets whose length is not a
// multiple of ⌊k/2⌋, on tick streams with gaps, on Brinkhoff data, and on a
// Trucks stream where later convoys subsume eager emissions. Every convoy
// closed on the way, final or not, must be whole at each tick of its
// lifespan.
#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "baselines/gold.h"
#include "core/k2hop.h"
#include "core/online.h"
#include "gen/brinkhoff.h"
#include "gen/synthetic.h"
#include "gen/trucks.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeMemStore;
using ::k2::testing::ScratchDir;
using ::k2::testing::Str;


std::vector<Convoy> BatchMine(const Dataset& data, const MiningParams& params) {
  auto store = MakeMemStore(data);
  auto result = MineK2Hop(store.get(), params);
  K2_CHECK(result.ok());
  return result.MoveValue();
}

/// Every closed convoy, final or not, is FC: re-clustered alone, its
/// objects form exactly one cluster at every tick of its lifespan. The
/// online miner records each validated lifespan as a proof on this.
void ExpectClosedConvoysWhole(Store* store, const MiningParams& params,
                              const std::vector<Convoy>& closed) {
  for (const Convoy& v : closed) {
    for (Timestamp t = v.start; t <= v.end; ++t) {
      auto clusters = ReCluster(store, t, v.objects, params);
      ASSERT_TRUE(clusters.ok()) << clusters.status().ToString();
      ASSERT_EQ(clusters.value(), std::vector<ObjectSet>{v.objects})
          << v.DebugString() << " is not whole at tick " << t;
    }
  }
}

/// Streams `data` into a fresh store of `kind` and finalizes; checks the
/// exact batch equality and returns the miner's closed-convoy count.
void ExpectStreamingMatchesBatch(const Dataset& data,
                                 const MiningParams& params, StoreKind kind,
                                 const std::string& tag) {
  const std::vector<Convoy> expected = BatchMine(data, params);
  auto store_result = CreateStore(kind, ScratchDir("online_diff_" + tag) + "/" +
                                            StoreKindName(kind));
  ASSERT_TRUE(store_result.ok()) << store_result.status().ToString();
  std::unique_ptr<Store> store = store_result.MoveValue();

  OnlineK2HopMiner miner(store.get(), params);
  for (Timestamp t : data.timestamps()) {
    ASSERT_TRUE(miner.AppendTick(t, SnapshotPoints(data, t)).ok()) << "tick " << t;
  }
  auto streamed = miner.Finalize();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  // Byte-exact: both sides are in canonical sorted order.
  EXPECT_EQ(streamed.value(), expected)
      << "engine: " << StoreKindName(kind) << "\nstreamed:\n"
      << Str(streamed.value()) << "batch:\n"
      << Str(expected);
}

struct StreamCase {
  uint64_t seed;
  int num_objects;
  int num_ticks;
  double area;
  int m;
  int k;
  double eps;
  // 0 = no gaps; else drop the ticks with 1 <= t % gap_modulus <= gap_run.
  int gap_modulus;
  int gap_run = 1;
};

std::string CaseName(const ::testing::TestParamInfo<StreamCase>& info) {
  const StreamCase& c = info.param;
  return "seed" + std::to_string(c.seed) + "_n" +
         std::to_string(c.num_objects) + "_t" + std::to_string(c.num_ticks) +
         "_m" + std::to_string(c.m) + "_k" + std::to_string(c.k) +
         (c.gap_modulus > 0 ? "_gap" + std::to_string(c.gap_modulus) : "") +
         (c.gap_run > 1 ? "_run" + std::to_string(c.gap_run) : "");
}

class OnlineDifferentialTest : public ::testing::TestWithParam<StreamCase> {
 protected:
  Dataset MakeData() const {
    const StreamCase& c = GetParam();
    RandomWalkSpec spec;
    spec.seed = c.seed;
    spec.num_objects = c.num_objects;
    spec.num_ticks = c.num_ticks;
    spec.area = c.area;
    spec.step = c.area / 8.0;
    Dataset walk = GenerateRandomWalk(spec);
    if (c.gap_modulus <= 0) return walk;
    // Punch gaps into the tick stream: drop whole ticks, as if no object
    // reported during them.
    DatasetBuilder builder;
    for (const PointRecord& rec : walk.records()) {
      const Timestamp phase = rec.t % c.gap_modulus;
      if (phase >= 1 && phase <= c.gap_run) continue;
      builder.Add(rec);
    }
    return builder.Build();
  }
  MiningParams Params() const {
    const StreamCase& c = GetParam();
    return MiningParams{c.m, c.k, c.eps};
  }
};

TEST_P(OnlineDifferentialTest, StreamingMatchesBatchOnEveryStore) {
  const Dataset data = MakeData();
  const MiningParams params = Params();
  const std::string tag = CaseName(::testing::TestParamInfo<StreamCase>(
      GetParam(), 0));
  for (StoreKind kind : {StoreKind::kMemory, StoreKind::kFile,
                         StoreKind::kBPlusTree, StoreKind::kLsm}) {
    ExpectStreamingMatchesBatch(data, params, kind, tag);
  }
}

TEST_P(OnlineDifferentialTest, StreamingMatchesGoldFullyConnected) {
  // Anchor the streaming path to the brute-force oracle as well, so a bug
  // shared by both miners cannot hide behind the batch comparison.
  const Dataset data = MakeData();
  const MiningParams params = Params();
  MemoryStore store;
  OnlineK2HopMiner miner(&store, params);
  for (Timestamp t : data.timestamps()) {
    ASSERT_TRUE(miner.AppendTick(t, SnapshotPoints(data, t)).ok());
  }
  auto streamed = miner.Finalize();
  ASSERT_TRUE(streamed.ok());
  EXPECT_SAME_CONVOYS(streamed.value(),
                      GoldFullyConnectedConvoys(data, params));
}

TEST_P(OnlineDifferentialTest, ClosedConvoysAreWholeAtEveryTick) {
  const Dataset data = MakeData();
  const MiningParams params = Params();
  MemoryStore store;
  OnlineK2HopMiner miner(&store, params);
  for (Timestamp t : data.timestamps()) {
    ASSERT_TRUE(miner.AppendTick(t, SnapshotPoints(data, t)).ok());
  }
  ExpectClosedConvoysWhole(&store, params, miner.closed_convoys());
}

// Dense walks: chance convoys, splits, merges — the adversarial input.
INSTANTIATE_TEST_SUITE_P(
    DenseRandomWalks, OnlineDifferentialTest,
    ::testing::Values(
        StreamCase{1, 8, 14, 40.0, 2, 3, 8.0, 0},
        StreamCase{2, 8, 14, 40.0, 2, 4, 8.0, 0},
        StreamCase{3, 9, 12, 50.0, 3, 3, 10.0, 0},
        StreamCase{4, 10, 16, 60.0, 2, 5, 9.0, 0},
        StreamCase{5, 10, 10, 45.0, 3, 4, 12.0, 0},
        StreamCase{6, 7, 20, 35.0, 2, 6, 7.0, 0},
        StreamCase{7, 12, 12, 70.0, 2, 4, 10.0, 0},
        StreamCase{8, 12, 15, 55.0, 3, 5, 11.0, 0}),
    CaseName);

// Tick counts that are not multiples of ⌊k/2⌋ leave a tail after the last
// benchmark point; wide hop-windows stress suspended walks.
INSTANTIATE_TEST_SUITE_P(
    RaggedLengthsAndWideWindows, OnlineDifferentialTest,
    ::testing::Values(
        StreamCase{31, 8, 23, 45.0, 2, 10, 8.0, 0},
        StreamCase{32, 8, 29, 45.0, 2, 12, 8.0, 0},
        StreamCase{33, 10, 25, 55.0, 3, 9, 10.0, 0},
        StreamCase{34, 9, 22, 50.0, 2, 7, 9.0, 0},
        StreamCase{35, 10, 27, 50.0, 2, 11, 9.0, 0}),
    CaseName);

// Gapped tick streams: whole ticks missing from the data.
INSTANTIATE_TEST_SUITE_P(
    GappedStreams, OnlineDifferentialTest,
    ::testing::Values(
        StreamCase{41, 8, 20, 40.0, 2, 4, 8.0, 5},
        StreamCase{42, 10, 24, 50.0, 2, 5, 9.0, 7},
        StreamCase{43, 9, 26, 45.0, 3, 6, 10.0, 4},
        StreamCase{44, 8, 30, 40.0, 2, 9, 8.0, 6}),
    CaseName);

// Long gaps: each run of missing ticks holds several benchmark grid points,
// of which the miners cluster only the first and the last.
INSTANTIATE_TEST_SUITE_P(
    LongGapStreams, OnlineDifferentialTest,
    ::testing::Values(
        StreamCase{51, 8, 70, 40.0, 2, 4, 8.0, 20, 9},
        StreamCase{52, 10, 80, 50.0, 2, 6, 9.0, 24, 12},
        StreamCase{53, 9, 90, 35.0, 3, 8, 12.0, 30, 17}),
    CaseName);

// ---------------------------------------------------------------------------
// Brinkhoff workload (network-based movement, objects appearing over time)
// ---------------------------------------------------------------------------

TEST(OnlineBrinkhoffTest, StreamingMatchesBatchOnMemoryAndLsm) {
  BrinkhoffParams params;
  params.grid.nx = 6;
  params.grid.ny = 6;
  params.grid.spacing = 500.0;
  params.max_time = 120;
  params.obj_begin = 60;
  params.obj_time = 1;
  params.seed = 9;
  const Dataset data = GenerateBrinkhoff(params);
  ASSERT_GT(data.num_points(), 0u);
  const MiningParams mining{3, 10, 60.0};
  for (StoreKind kind : {StoreKind::kMemory, StoreKind::kLsm}) {
    ExpectStreamingMatchesBatch(data, mining, kind, "brinkhoff");
  }
}

// ---------------------------------------------------------------------------
// Dominance: a convoy that ends later subsumes an eager emission
// ---------------------------------------------------------------------------

TEST(OnlineDominanceTest, FinalizeDropsEmissionsThatLaterConvoysSubsume) {
  // Slow Trucks at a short k: some convoys closed eagerly are subsumed by
  // convoys that end later (7 of 170 here), so Finalize() must fold them
  // away rather than return every emission.
  TrucksParams trucks;
  trucks.num_trajectories = 138;
  trucks.ticks = 600;
  trucks.seed = 13;
  trucks.grid.side_speed = 18.0;
  trucks.grid.main_speed = 30.0;
  trucks.grid.highway_speed = 45.0;
  const Dataset data = GenerateTrucks(trucks);
  const MiningParams params{2, 10, 40.0};
  for (StoreKind kind : {StoreKind::kMemory, StoreKind::kLsm}) {
    SCOPED_TRACE(StoreKindName(kind));
    auto store = CreateStore(kind, ScratchDir("online_dominance") + "/" +
                                       StoreKindName(kind));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    std::vector<Convoy> emitted;
    OnlineK2HopOptions options;
    options.on_closed = [&](const Convoy& v) { emitted.push_back(v); };
    OnlineK2HopMiner miner(store.value().get(), params, options);
    for (Timestamp t : data.timestamps()) {
      ASSERT_TRUE(miner.AppendTick(t, SnapshotPoints(data, t)).ok()) << t;
    }
    auto streamed = miner.Finalize();
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    const std::vector<Convoy>& final_set = streamed.value();
    size_t subsumed = 0;
    for (const Convoy& v : emitted) {
      if (std::find(final_set.begin(), final_set.end(), v) == final_set.end()) {
        ++subsumed;
      }
      EXPECT_TRUE(std::any_of(
          final_set.begin(), final_set.end(),
          [&](const Convoy& w) { return v.IsSubConvoyOf(w); }))
          << v.DebugString() << " is inside no final convoy";
    }
    EXPECT_GT(subsumed, 0u) << "no emission was subsumed: weak test input";
    ExpectClosedConvoysWhole(store.value().get(), params, emitted);
    auto batch = MineK2Hop(store.value().get(), params);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(final_set, batch.value());
  }
}

// ---------------------------------------------------------------------------
// Planted ground truth: the closed/open split is visible in the stream
// ---------------------------------------------------------------------------

TEST(OnlinePlantedTest, PlantedConvoysAreRecoveredAndEagerlyClosed) {
  PlantedConvoySpec spec;
  spec.num_noise_objects = 15;
  spec.num_ticks = 60;
  spec.seed = 5;
  // Group 0 ends mid-stream (closed eagerly); group 1 runs to the end.
  spec.groups.push_back(PlantedGroup{4, 5, 25, 8.0});
  spec.groups.push_back(PlantedGroup{3, 30, 59, 8.0});
  const Dataset data = GeneratePlantedConvoys(spec);
  const MiningParams params{3, 12, 3.0};

  MemoryStore store;
  OnlineK2HopMiner miner(&store, params);
  for (Timestamp t : data.timestamps()) {
    ASSERT_TRUE(miner.AppendTick(t, SnapshotPoints(data, t)).ok());
  }
  // The first planted group died at t=25 and the stream ran long past it:
  // its convoy must already be closed before Finalize().
  const std::vector<Convoy>& closed = miner.closed_convoys();
  const Convoy group0(ObjectSet::Of({0, 1, 2, 3}), 5, 25);
  EXPECT_NE(std::find(closed.begin(), closed.end(), group0), closed.end())
      << Str(closed);

  auto streamed = miner.Finalize();
  ASSERT_TRUE(streamed.ok());
  EXPECT_GT(miner.stats().open_convoys, 0u);  // group 1 was alive at the end
  EXPECT_EQ(streamed.value(), BatchMine(data, params));
  // Both planted groups are in the final answer.
  const Convoy group1(ObjectSet::Of({4, 5, 6}), 30, 59);
  EXPECT_NE(std::find(streamed.value().begin(), streamed.value().end(),
                      group0),
            streamed.value().end());
  EXPECT_NE(std::find(streamed.value().begin(), streamed.value().end(),
                      group1),
            streamed.value().end());
}

}  // namespace
}  // namespace k2
