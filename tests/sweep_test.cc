// Unit tests for the candidate sweep on hand-built cluster sequences, and
// for the miners built on it over a store with a long gap between ticks.
#include <map>

#include <gtest/gtest.h>

#include "baselines/cmc.h"
#include "baselines/cuts.h"
#include "baselines/dcm.h"
#include "baselines/spare.h"
#include "baselines/sweep.h"
#include "common/rng.h"
#include "core/k2hop.h"
#include "core/online.h"
#include "core/vcoda.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::C;
using ::k2::testing::MakeDataset;
using ::k2::testing::MakeMemStore;

/// Fixed cluster script: tick -> cluster list.
ClustersAtFn Script(std::map<Timestamp, std::vector<ObjectSet>> script) {
  return [script = std::move(script)](Timestamp t,
                                      std::vector<ObjectSet>* out) -> Status {
    auto it = script.find(t);
    *out = it == script.end() ? std::vector<ObjectSet>{} : it->second;
    return Status::OK();
  };
}

std::vector<Convoy> RunSweep(std::map<Timestamp, std::vector<ObjectSet>> script,
                        TimeRange range, int m, SweepOptions options) {
  auto result = MaximalConvoySweep(Script(std::move(script)), range, m, options);
  K2_CHECK(result.ok());
  return result.MoveValue();
}

TEST(SweepTest, SingleStableConvoy) {
  const ObjectSet abc = ObjectSet::Of({1, 2, 3});
  auto out = RunSweep({{0, {abc}}, {1, {abc}}, {2, {abc}}}, {0, 2}, 2,
                 SweepOptions{.min_length = 2});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], C({1, 2, 3}, 0, 2));
}

TEST(SweepTest, GapTerminatesConvoy) {
  const ObjectSet ab = ObjectSet::Of({1, 2});
  auto out = RunSweep({{0, {ab}}, {1, {ab}}, {3, {ab}}, {4, {ab}}}, {0, 4}, 2,
                 SweepOptions{.min_length = 2});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], C({1, 2}, 0, 1));
  EXPECT_EQ(out[1], C({1, 2}, 3, 4));
}

TEST(SweepTest, ShrinkEmitsSuperset) {
  // {1,2,3} together at 0-1, then only {1,2} continue.
  const ObjectSet abc = ObjectSet::Of({1, 2, 3});
  const ObjectSet ab = ObjectSet::Of({1, 2});
  auto out = RunSweep({{0, {abc}}, {1, {abc}}, {2, {ab}}, {3, {ab}}}, {0, 3}, 2,
                 SweepOptions{.min_length = 2});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], C({1, 2, 3}, 0, 1));
  EXPECT_EQ(out[1], C({1, 2}, 0, 3));
}

TEST(SweepTest, ConvoyStartingInsideBiggerCluster) {
  // The CMC-bug scenario: {4,5} ride inside {1,2,3,4,5} at tick 0-1, the
  // big cluster dies but {4,5} continue; the corrected sweep must catch
  // ({4,5},[0,3]).
  const ObjectSet big = ObjectSet::Of({1, 2, 3, 4, 5});
  const ObjectSet de = ObjectSet::Of({4, 5});
  auto out = RunSweep({{0, {big}}, {1, {big}}, {2, {de}}, {3, {de}}}, {0, 3}, 2,
                 SweepOptions{.min_length = 3});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], C({4, 5}, 0, 3));
}

TEST(SweepTest, SplitIntoTwoConvoys) {
  const ObjectSet abcd = ObjectSet::Of({1, 2, 3, 4});
  const ObjectSet ab = ObjectSet::Of({1, 2});
  const ObjectSet cd = ObjectSet::Of({3, 4});
  auto out = RunSweep({{0, {abcd}}, {1, {abcd}}, {2, {ab, cd}}, {3, {ab, cd}}},
                 {0, 3}, 2, SweepOptions{.min_length = 2});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], C({1, 2, 3, 4}, 0, 1));
  EXPECT_EQ(out[1], C({1, 2}, 0, 3));
  EXPECT_EQ(out[2], C({3, 4}, 0, 3));
}

TEST(SweepTest, MergeOfTwoClusters) {
  const ObjectSet ab = ObjectSet::Of({1, 2});
  const ObjectSet cd = ObjectSet::Of({3, 4});
  const ObjectSet abcd = ObjectSet::Of({1, 2, 3, 4});
  auto out = RunSweep({{0, {ab, cd}}, {1, {abcd}}, {2, {abcd}}}, {0, 2}, 2,
                 SweepOptions{.min_length = 2});
  // ab and cd run the full span; abcd only [1,2].
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], C({1, 2}, 0, 2));
  EXPECT_EQ(out[1], C({3, 4}, 0, 2));
  EXPECT_EQ(out[2], C({1, 2, 3, 4}, 1, 2));
}

TEST(SweepTest, MinLengthFiltersShortLived) {
  const ObjectSet ab = ObjectSet::Of({1, 2});
  auto out =
      RunSweep({{0, {ab}}, {1, {ab}}}, {0, 1}, 2, SweepOptions{.min_length = 3});
  EXPECT_TRUE(out.empty());
}

TEST(SweepTest, MinClusterSizeRespected) {
  // Intersections below m die: {1,2,3} ∩ {1,2} has size 2 < m=3.
  const ObjectSet abc = ObjectSet::Of({1, 2, 3});
  const ObjectSet ab = ObjectSet::Of({1, 2});
  auto out = RunSweep({{0, {abc}}, {1, {ab}}, {2, {ab}}}, {0, 2}, 3,
                 SweepOptions{.min_length = 1});
  // Only the singleton-tick convoy {1,2,3}@0 survives with min_length 1.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], C({1, 2, 3}, 0, 0));
}

TEST(SweepTest, BorderKeepLeft) {
  const ObjectSet ab = ObjectSet::Of({1, 2});
  SweepOptions options;
  options.min_length = 10;  // nothing passes the length filter
  options.keep_left_border = true;
  auto out = RunSweep({{5, {ab}}, {6, {ab}}}, {5, 8}, 2, options);
  // Piece starts at the left border => kept despite being short.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], C({1, 2}, 5, 6));
}

TEST(SweepTest, BorderKeepRight) {
  const ObjectSet ab = ObjectSet::Of({1, 2});
  SweepOptions options;
  options.min_length = 10;
  options.keep_right_border = true;
  auto out = RunSweep({{7, {ab}}, {8, {ab}}}, {5, 8}, 2, options);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], C({1, 2}, 7, 8));
}

TEST(SweepTest, EmptyRangeYieldsNothing) {
  auto out = RunSweep({}, {0, -1}, 2, SweepOptions{.min_length = 1});
  EXPECT_TRUE(out.empty());
}

TEST(SweepTest, ReformingConvoyGetsBothRuns) {
  const ObjectSet ab = ObjectSet::Of({1, 2});
  const ObjectSet cd = ObjectSet::Of({3, 4});
  auto out = RunSweep({{0, {ab}}, {1, {ab}}, {2, {cd}}, {3, {ab}}, {4, {ab}}},
                 {0, 4}, 2, SweepOptions{.min_length = 2});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], C({1, 2}, 0, 1));
  EXPECT_EQ(out[1], C({1, 2}, 3, 4));
}

TEST(SweepTest, GapCostsOneFoldNotOneCallPerTick) {
  // Clusters at ticks 0-39 and kGap..kGap+39, no data in between.
  constexpr Timestamp kGap = 1500000;
  const ObjectSet abc = ObjectSet::Of({1, 2, 3});
  std::vector<Timestamp> ticks;
  for (Timestamp t = 0; t < 40; ++t) {
    ticks.push_back(t);
    ticks.push_back(kGap + t);
  }
  std::sort(ticks.begin(), ticks.end());
  int calls = 0;
  const ClustersAtFn counting = [&](Timestamp t,
                                    std::vector<ObjectSet>* out) -> Status {
    ++calls;
    *out = t < 40 || t >= kGap ? std::vector<ObjectSet>{abc}
                               : std::vector<ObjectSet>{};
    return Status::OK();
  };
  auto result = MaximalConvoySweep(counting, ticks, {0, kGap + 39}, 2,
                                   SweepOptions{.min_length = 2});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), (std::vector<Convoy>{C({1, 2, 3}, 0, 39),
                                                 C({1, 2, 3}, kGap,
                                                   kGap + 39)}));
  EXPECT_LE(calls, 82);
}

TEST(SweepTest, DataTickSweepMatchesTickByTickSweep) {
  // Random scripts over [0, 60) with gaps of every length; ranges that
  // start and end inside gaps or on data, with and without the border
  // rules of DCM's partitions.
  Rng rng(20261020);
  for (int round = 0; round < 300; ++round) {
    std::map<Timestamp, std::vector<ObjectSet>> script;
    std::vector<Timestamp> ticks;
    for (Timestamp t = 0; t < 60; ++t) {
      if (rng.Bernoulli(0.3)) continue;
      ticks.push_back(t);
      std::vector<ObjectSet>& clusters = script[t];
      // Two clusters drawn from six objects; a tick with data may still
      // hold no cluster of m objects.
      std::vector<ObjectId> left, right;
      for (ObjectId oid = 0; oid < 6; ++oid) {
        const int64_t side = rng.UniformInt(0, 2);
        if (side == 0) left.push_back(oid);
        if (side == 1) right.push_back(oid);
      }
      for (const auto& ids : {left, right}) {
        if (ids.size() >= 2) clusters.push_back(ObjectSet(ids));
      }
    }
    const Timestamp a = static_cast<Timestamp>(rng.UniformInt(0, 59));
    const TimeRange range{a, static_cast<Timestamp>(rng.UniformInt(a, 59))};
    SweepOptions options;
    options.min_length = static_cast<int>(rng.UniformInt(1, 4));
    options.keep_left_border = rng.Bernoulli(0.5);
    options.keep_right_border = rng.Bernoulli(0.5);
    const int m = static_cast<int>(rng.UniformInt(2, 3));
    auto dense = MaximalConvoySweep(Script(script), range, m, options);
    auto sparse = MaximalConvoySweep(Script(script), ticks, range, m, options);
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(sparse.ok());
    ASSERT_EQ(sparse.value(), dense.value()) << "round " << round;
  }
}

TEST(SweepGapTest, MinersReturnBothConvoysAcrossALongGap) {
  // Four objects move together at ticks 0-39 and again at
  // kGap..kGap+39; nothing is reported in between.
  constexpr Timestamp kGap = 1500000;
  std::vector<std::tuple<Timestamp, ObjectId, double, double>> rows;
  for (const Timestamp base : {Timestamp{0}, kGap}) {
    for (Timestamp t = base; t < base + 40; ++t) {
      for (ObjectId oid = 0; oid < 4; ++oid) {
        rows.push_back({t, oid, (t - base) * 5.0 + oid, 0.0});
      }
    }
  }
  const Dataset data = MakeDataset(rows);
  const MiningParams params{3, 30, 30.0};
  const std::vector<Convoy> want{C({0, 1, 2, 3}, 0, 39),
                                 C({0, 1, 2, 3}, kGap, kGap + 39)};
  auto store = MakeMemStore(data);
  const auto expect = [&want](const char* miner,
                              Result<std::vector<Convoy>> got) {
    ASSERT_TRUE(got.ok()) << miner << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), want) << miner;
  };
  expect("cmc", MineCmc(store.get(), params));
  expect("pccd", MinePccd(store.get(), params));
  expect("vcoda", MineVcoda(store.get(), params));
  expect("dcm", MineDcm(store.get(), params));
  expect("cuts", MineCuts(store.get(), params));
  expect("spare", MineSpare(store.get(), params));
  expect("k2hop", MineK2Hop(store.get(), params));

  MemoryStore stream;
  OnlineK2HopMiner online(&stream, params);
  for (const Timestamp t : data.timestamps()) {
    ASSERT_TRUE(online.AppendTick(t, SnapshotPoints(data, t)).ok());
  }
  expect("online", online.Finalize());
}

}  // namespace
}  // namespace k2
