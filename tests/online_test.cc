// Unit tests for the online/streaming k/2-hop miner: the incremental merge
// and extension-walk building blocks, the append lifecycle, eager closed
// emission vs. open convoys, and small streaming-vs-batch equivalences
// (the heavy randomized equivalence lives in online_differential_test.cc).
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/rng.h"
#include "core/k2hop.h"
#include "core/online.h"
#include "gen/synthetic.h"
#include "storage/lsm_store.h"
#include "storage/memory_store.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::C;
using ::k2::testing::kGone;
using ::k2::testing::MakeDataset;
using ::k2::testing::MakeMemStore;
using ::k2::testing::MakeTracks;
using ::k2::testing::ScratchDir;
using ::k2::testing::Str;


/// Streams `data` tick by tick into a fresh miner over `store`.
Status Stream(const Dataset& data, OnlineK2HopMiner* miner) {
  for (Timestamp t : data.timestamps()) {
    K2_RETURN_NOT_OK(miner->AppendTick(t, SnapshotPoints(data, t)));
  }
  return Status::OK();
}

std::vector<Convoy> BatchMine(const Dataset& data, const MiningParams& params) {
  auto store = MakeMemStore(data);
  auto result = MineK2Hop(store.get(), params);
  K2_CHECK(result.ok());
  return result.MoveValue();
}

// ---------------------------------------------------------------------------
// SpanningConvoyMerger — incremental merge equals the batch fold
// ---------------------------------------------------------------------------

TEST(SpanningConvoyMergerTest, IncrementalEqualsBatchOnPaperTable3) {
  // The windows of MergeTest.PaperTable3Example (objects a..k = 1..11): each
  // row of Table 3's answer surfaces at the window where it stops extending.
  const std::vector<Timestamp> benchmarks{0, 4, 8, 12, 16};
  const std::vector<std::vector<ObjectSet>> spanning = {
      {ObjectSet::Of({1, 2, 3, 4}), ObjectSet::Of({5, 6, 7, 8}),
       ObjectSet::Of({9, 10, 11})},
      {ObjectSet::Of({1, 2, 3, 4}), ObjectSet::Of({5, 6}),
       ObjectSet::Of({7, 8})},
      {ObjectSet::Of({1, 2, 5, 6}), ObjectSet::Of({3, 4, 7, 8}),
       ObjectSet::Of({9, 10, 11})},
      {ObjectSet::Of({1, 2}), ObjectSet::Of({3, 4, 7, 8}),
       ObjectSet::Of({5, 6})},
  };
  const std::vector<std::vector<Convoy>> deaths_by_window = {
      {},
      {C({5, 6, 7, 8}, 0, 4), C({9, 10, 11}, 0, 4)},
      {C({1, 2, 3, 4}, 0, 8)},
      {C({1, 2, 5, 6}, 8, 12), C({9, 10, 11}, 8, 12)},
  };
  SpanningConvoyMerger merger(2);
  for (size_t w = 0; w < spanning.size(); ++w) {
    std::vector<Convoy> died;
    merger.AddWindow(benchmarks[w], spanning[w], &died);
    EXPECT_SAME_CONVOYS(died, deaths_by_window[w]) << "window " << w;
  }
  std::vector<Convoy> died;
  merger.Finish(benchmarks.back(), &died);
  EXPECT_SAME_CONVOYS(died, std::vector<Convoy>({C({1, 2}, 0, 16),
                                                 C({3, 4}, 0, 16),
                                                 C({5, 6}, 0, 16),
                                                 C({7, 8}, 0, 16),
                                                 C({3, 4, 7, 8}, 8, 16)}));
}

TEST(SpanningConvoyMergerTest, DeathsAreMaximalWithoutAFilter) {
  // The batch miner takes the merger's deaths as the maximal spanning
  // convoys without filtering them: no death dominates another, within a
  // window or across windows. Random windows over 12 objects, with the
  // pairwise disjoint sets HWMT returns and with overlapping ones.
  Rng rng(20261019);
  size_t deaths = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const bool disjoint = trial % 2 == 0;
    const int m = 2 + static_cast<int>(rng.NextInt(2));
    SpanningConvoyMerger merger(m);
    std::vector<Convoy> died;
    Timestamp b = 0;
    const int windows = 1 + static_cast<int>(rng.NextInt(8));
    for (int w = 0; w < windows; ++w, b += 4) {
      std::vector<ObjectId> objects(12);
      for (ObjectId i = 0; i < objects.size(); ++i) objects[i] = i;
      for (size_t i = objects.size(); i > 1; --i) {
        std::swap(objects[i - 1], objects[rng.NextInt(i)]);
      }
      std::vector<ObjectSet> spanning;
      for (size_t used = 0, sets = rng.NextInt(5); sets > 0; --sets) {
        const size_t size = m + rng.NextInt(4);
        if (disjoint && used + size > objects.size()) break;
        const size_t from =
            disjoint ? used : rng.NextInt(objects.size() - size + 1);
        spanning.push_back(ObjectSet(std::vector<ObjectId>(
            objects.begin() + from, objects.begin() + from + size)));
        used += size;
      }
      merger.AddWindow(b, spanning, &died);
    }
    merger.Finish(b, &died);
    deaths += died.size();
    EXPECT_SAME_CONVOYS(FilterMaximal(died), died) << "trial " << trial;
  }
  EXPECT_GT(deaths, 2000u) << "weak test input";
}

TEST(SpanningConvoyMergerTest, DeathSurfacesAtItsWindow) {
  SpanningConvoyMerger merger(2);
  std::vector<Convoy> died;
  merger.AddWindow(0, {ObjectSet::Of({1, 2})}, &died);
  EXPECT_TRUE(died.empty());
  merger.AddWindow(4, {}, &died);  // empty window kills the active convoy
  ASSERT_EQ(died.size(), 1u);
  EXPECT_EQ(died[0], C({1, 2}, 0, 4));
  died.clear();
  merger.Finish(8, &died);
  EXPECT_TRUE(died.empty());
}

// ---------------------------------------------------------------------------
// WalkGroup of one walk — suspended/resumed walks equal one-shot extension
// ---------------------------------------------------------------------------

TEST(ConvoyExtensionWalkTest, ResumedAdvanceEqualsOneShotExtendRight) {
  // {0,1,2} together t=0..3; {0,1} continue through t=5; all apart after.
  auto store = MakeMemStore(MakeTracks({{0, 0, 0, 0, 0, 0, 70, 70},
                                        {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 99, 99},
                                        {1.0, 1.0, 1.0, 1.0, 44, 44, 44, 44}}));
  const MiningParams params{2, 2, 1.0};
  const Convoy seed = C({0, 1, 2}, 0, 3);

  auto batch = ExtendRight(store.get(), params, {seed}, 7);
  ASSERT_TRUE(batch.ok());

  std::vector<Convoy> completed;
  WalkGroup walk(+1);
  walk.Start(seed);
  for (Timestamp upto = 4; upto <= 7; ++upto) {  // one tick at a time
    ASSERT_TRUE(
        walk.Advance(store.get(), params, upto, &completed, nullptr).ok());
  }
  walk.Flush(7, &completed);
  MaximalConvoySet set;
  for (Convoy& c : completed) set.Insert(std::move(c));
  EXPECT_SAME_CONVOYS(set.TakeSorted(), batch.value());
}

TEST(ConvoyExtensionWalkTest, SuspendsAtTheBoundAndReportsNextTick) {
  auto store = MakeMemStore(
      MakeTracks({std::vector<double>(10, 0.0), std::vector<double>(10, 0.5)}));
  WalkGroup walk(+1);
  walk.Start(C({0, 1}, 0, 2));
  std::vector<Convoy> completed;
  ASSERT_TRUE(
      walk.Advance(store.get(), {2, 2, 1.0}, 5, &completed, nullptr).ok());
  EXPECT_FALSE(walk.done());
  EXPECT_EQ(walk.next_tick(), 6);
  EXPECT_TRUE(completed.empty());
  EXPECT_EQ(walk.num_branches(), 1u);
}

// ---------------------------------------------------------------------------
// Append lifecycle
// ---------------------------------------------------------------------------

TEST(OnlineK2HopTest, RejectsOutOfOrderAppends) {
  MemoryStore store;
  OnlineK2HopMiner miner(&store, {2, 4, 1.0});
  ASSERT_TRUE(miner.AppendTick(5, {{1, 0, 0}, {2, 0.5, 0}}).ok());
  auto bad = miner.AppendTick(5, {{1, 0, 0}});
  EXPECT_EQ(bad.code(), StatusCode::kInvalid);
  bad = miner.AppendTick(3, {{1, 0, 0}});
  EXPECT_EQ(bad.code(), StatusCode::kInvalid);
  // The miner stays usable after a rejected (not-applied) append.
  EXPECT_TRUE(miner.AppendTick(6, {{1, 0, 0}, {2, 0.5, 0}}).ok());
}

TEST(OnlineK2HopTest, RejectsTicksOutsideTheMinableRange) {
  // Past INT32_MAX - ⌊k/2⌋ the benchmark schedule would wrap and Drain()
  // would never return; INT32_MIN is kInvalidTimestamp.
  MemoryStore store;
  OnlineK2HopMiner miner(&store, {3, 30, 30.0});
  const std::vector<SnapshotPoint> group = {{1, 0, 0}, {2, 0.5, 0}, {3, 1, 0}};
  const Timestamp max = std::numeric_limits<Timestamp>::max();
  for (Timestamp t : {max, max - 14, kInvalidTimestamp}) {
    const Status s = miner.AppendTick(t, group);
    EXPECT_EQ(s.code(), StatusCode::kInvalid) << t;
    EXPECT_NE(s.message().find("ticks must lie in"), std::string::npos)
        << s.ToString();
  }
  EXPECT_EQ(store.num_points(), 0u);
  EXPECT_EQ(miner.frontier(), kInvalidTimestamp);
  // The miner still works afterwards.
  for (Timestamp t = 0; t < 40; ++t) {
    ASSERT_TRUE(miner.AppendTick(t, group).ok()) << t;
  }
  auto result = miner.Finalize();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value(), std::vector<Convoy>{C({1, 2, 3}, 0, 39)});
}

TEST(OnlineK2HopTest, StreamEndingAtTheTickBoundMinesAsAtTickZero) {
  RandomWalkSpec spec;
  spec.num_objects = 10;
  spec.num_ticks = 30;
  spec.area = 50.0;
  spec.step = 6.0;
  spec.seed = 77;
  const Dataset data = GenerateRandomWalk(spec);
  const MiningParams params{2, 6, 9.0};
  // The last tick lands exactly on INT32_MAX - ⌊k/2⌋.
  const Timestamp shift =
      std::numeric_limits<Timestamp>::max() - 3 - data.time_range().end;
  MemoryStore store;
  OnlineK2HopMiner miner(&store, params);
  for (Timestamp t : data.timestamps()) {
    ASSERT_TRUE(miner.AppendTick(t + shift, SnapshotPoints(data, t)).ok());
  }
  auto shifted = miner.Finalize();
  ASSERT_TRUE(shifted.ok()) << shifted.status().ToString();
  std::vector<Convoy> back;
  for (const Convoy& v : shifted.value()) {
    back.push_back(Convoy(v.objects, v.start - shift, v.end - shift));
  }
  const std::vector<Convoy> want = BatchMine(data, params);
  ASSERT_FALSE(want.empty()) << "weak test input";
  EXPECT_EQ(back, want);
}

TEST(OnlineK2HopTest, RejectsAppendAfterFinalizeAndIsIdempotent) {
  MemoryStore store;
  OnlineK2HopMiner miner(&store, {2, 2, 1.0});
  ASSERT_TRUE(miner.AppendTick(0, {{1, 0, 0}, {2, 0.5, 0}}).ok());
  ASSERT_TRUE(miner.AppendTick(1, {{1, 0, 0}, {2, 0.5, 0}}).ok());
  auto first = miner.Finalize();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(miner.finalized());
  EXPECT_EQ(miner.AppendTick(2, {{1, 0, 0}}).code(), StatusCode::kInvalid);
  auto second = miner.Finalize();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
}

TEST(OnlineK2HopTest, RejectsNonEmptyStoreAndInvalidParams) {
  auto loaded = MakeMemStore(MakeTracks({{0, 0}, {1, 1}}));
  OnlineK2HopMiner miner(loaded.get(), {2, 2, 1.0});
  EXPECT_EQ(miner.AppendTick(9, {{1, 0, 0}}).code(), StatusCode::kInvalid);

  MemoryStore empty;
  OnlineK2HopMiner bad_params(&empty, {1, 2, 1.0});
  EXPECT_EQ(bad_params.AppendTick(0, {{1, 0, 0}}).code(),
            StatusCode::kInvalid);
  EXPECT_FALSE(bad_params.Finalize().ok());
}

TEST(OnlineK2HopTest, EmptyTickIsANoop) {
  MemoryStore store;
  OnlineK2HopMiner miner(&store, {2, 2, 1.0});
  ASSERT_TRUE(miner.AppendTick(0, {{1, 0, 0}, {2, 0.5, 0}}).ok());
  ASSERT_TRUE(miner.AppendTick(1, {}).ok());
  EXPECT_EQ(miner.frontier(), 0);  // an empty tick is not part of the data
  EXPECT_EQ(miner.stats().empty_ticks, 1u);
  ASSERT_TRUE(miner.AppendTick(1, {{1, 0, 0}, {2, 0.5, 0}}).ok());
  auto result = miner.Finalize();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0], C({1, 2}, 0, 1));
}

TEST(OnlineK2HopTest, EmptyStreamAndShortRangeYieldNothing) {
  MemoryStore store;
  OnlineK2HopMiner miner(&store, {2, 4, 1.0});
  auto empty = miner.Finalize();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());

  MemoryStore store2;
  OnlineK2HopMiner short_range(&store2, {2, 4, 1.0});
  ASSERT_TRUE(short_range.AppendTick(0, {{1, 0, 0}, {2, 0.5, 0}}).ok());
  ASSERT_TRUE(short_range.AppendTick(1, {{1, 0, 0}, {2, 0.5, 0}}).ok());
  auto result = short_range.Finalize();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());  // range length 2 < k = 4
}

// ---------------------------------------------------------------------------
// Streaming equals batch
// ---------------------------------------------------------------------------

TEST(OnlineK2HopTest, MatchesBatchOnSimpleTracks) {
  // A convoy that ends mid-stream, one alive to the end, and noise.
  const Dataset data = MakeTracks({
      {0, 0, 0, 0, 0, 0, 80, 80, 80, 80, 80, 80},       // with 1 until t=5
      {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 7, 7, 7, 7, 7, 7},  // with 0, then 2
      {7.5, 7.5, 7.5, 7.5, 7.5, 7.5, 7.5, 7.5, 7.5, 7.5, 7.5, 7.5},
      {300, 412, 250, 999, 640, 111, 222, 333, 444, 555, 666, 777},
  });
  const MiningParams params{2, 4, 1.0};
  MemoryStore store;
  OnlineK2HopMiner miner(&store, params);
  ASSERT_TRUE(Stream(data, &miner).ok());
  auto streamed = miner.Finalize();
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(Str(streamed.value()), Str(BatchMine(data, params)));
  EXPECT_GT(miner.stats().open_convoys, 0u);  // {1,2} is alive at the end
}

TEST(OnlineK2HopTest, MatchesBatchWithTickGaps) {
  // Ticks 0..4 and 9..14 carry data; 5..8 are a gap.
  DatasetBuilder builder;
  for (Timestamp t = 0; t <= 14; ++t) {
    if (t > 4 && t < 9) continue;
    builder.Add(t, 1, 0.0, 0.0);
    builder.Add(t, 2, 0.5, 0.0);
    builder.Add(t, 3, 400.0 + 31.0 * t, 0.0);
  }
  const Dataset data = builder.Build();
  const MiningParams params{2, 3, 1.0};
  MemoryStore store;
  OnlineK2HopMiner miner(&store, params);
  ASSERT_TRUE(Stream(data, &miner).ok());
  auto streamed = miner.Finalize();
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(Str(streamed.value()), Str(BatchMine(data, params)));
}

TEST(OnlineK2HopTest, ALongGapClustersOnlyTheGridPointsAtItsEnds) {
  // Ticks 0..39 and 150,000,000..150,000,039 carry data, and the same four
  // objects travel together in both stretches. At k = 30 (hop 15) the gap
  // holds 9,999,997 grid points; online and batch cluster its first and
  // last one only, and still agree.
  constexpr Timestamp kLater = 150'000'000;
  DatasetBuilder builder;
  for (Timestamp base : {Timestamp{0}, kLater}) {
    for (Timestamp t = base; t < base + 40; ++t) {
      for (ObjectId o = 0; o < 4; ++o) builder.Add(t, o, 5.0 * o, 0.0);
    }
  }
  const Dataset data = builder.Build();
  const MiningParams params{3, 30, 30.0};
  EXPECT_EQ(BenchmarkPoints(data.timestamps(), params.k),
            (std::vector<Timestamp>{0, 15, 30, 45, kLater - 15, kLater,
                                    kLater + 15, kLater + 30}));

  MemoryStore store;
  OnlineK2HopMiner miner(&store, params);
  ASSERT_TRUE(Stream(data, &miner).ok());
  auto streamed = miner.Finalize();
  ASSERT_TRUE(streamed.ok());
  auto batch_store = MakeMemStore(data);
  K2HopStats stats;
  auto batch = MineK2Hop(batch_store.get(), params, {}, &stats);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(Str(streamed.value()), Str(batch.value()));
  const ObjectSet group = ObjectSet::Of({0, 1, 2, 3});
  EXPECT_EQ(batch.value(),
            (std::vector<Convoy>{Convoy(group, 0, 39),
                                 Convoy(group, kLater, kLater + 39)}));
  EXPECT_EQ(stats.benchmark_points, 8u);
  EXPECT_EQ(miner.stats().benchmark_points, 8u);
}

TEST(OnlineK2HopTest, MatchesBatchWhenLengthIsNotAMultipleOfHop) {
  // k = 6 -> hop 3; 14 ticks (0..13) leave a 1-tick tail after the last
  // benchmark at 12.
  const Dataset data = MakeTracks({std::vector<double>(14, 0.0),
                                   std::vector<double>(14, 0.5),
                                   std::vector<double>(14, 5.0)});
  const MiningParams params{2, 6, 1.0};
  MemoryStore store;
  OnlineK2HopMiner miner(&store, params);
  ASSERT_TRUE(Stream(data, &miner).ok());
  auto streamed = miner.Finalize();
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(Str(streamed.value()), Str(BatchMine(data, params)));
}

TEST(OnlineK2HopTest, MatchesBatchOnLsmStoreWithIngestFlushes) {
  RandomWalkSpec spec;
  spec.num_objects = 12;
  spec.num_ticks = 24;
  spec.area = 50.0;
  spec.step = 6.0;
  spec.seed = 1234;
  const Dataset data = GenerateRandomWalk(spec);
  const MiningParams params{2, 5, 9.0};

  // Tiny memtable so appends exercise flush + compaction mid-stream.
  LsmStoreOptions options;
  options.memtable_limit = 64;
  options.tier_fanout = 2;
  LsmStore store(ScratchDir("online_lsm") + "/lsm", options);
  OnlineK2HopMiner miner(&store, params);
  ASSERT_TRUE(Stream(data, &miner).ok());
  EXPECT_GT(store.num_sstables(), 0u);
  auto streamed = miner.Finalize();
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(Str(streamed.value()), Str(BatchMine(data, params)));
}

// ---------------------------------------------------------------------------
// Eager closed emission and stats
// ---------------------------------------------------------------------------

TEST(OnlineK2HopTest, EmitsClosedConvoyBeforeFinalize) {
  // {1,2} together ticks 0..7, far apart afterwards; plenty of stream left
  // after the convoy dies so its right walk completes before the end.
  DatasetBuilder builder;
  for (Timestamp t = 0; t <= 19; ++t) {
    builder.Add(t, 1, t <= 7 ? 0.0 : 500.0 + 20.0 * t, 0.0);
    builder.Add(t, 2, t <= 7 ? 0.5 : 900.0 - 20.0 * t, 0.0);
  }
  const Dataset data = builder.Build();
  const MiningParams params{2, 3, 1.0};

  MemoryStore store;
  std::vector<Convoy> callback_seen;
  OnlineK2HopOptions options;
  options.on_closed = [&](const Convoy& v) { callback_seen.push_back(v); };
  OnlineK2HopMiner miner(&store, params, options);
  ASSERT_TRUE(Stream(data, &miner).ok());

  const Convoy expected = C({1, 2}, 0, 7);
  ASSERT_EQ(miner.closed_convoys().size(), 1u);
  EXPECT_EQ(miner.closed_convoys()[0], expected);
  EXPECT_EQ(callback_seen, miner.closed_convoys());
  EXPECT_EQ(miner.stats().closed_convoys, 1u);

  auto result = miner.Finalize();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0], expected);
  EXPECT_EQ(miner.stats().open_convoys, 0u);
}

TEST(OnlineK2HopTest, ShuffledTickWithDuplicatesMinesAsItsSortedCopy) {
  // AppendTick skips its sort for a tick already strictly increasing by
  // oid, as the wire path sends them. Any other tick is normalized: the
  // same tick shuffled, with repeated points, mines exactly as sorted.
  RandomWalkSpec spec;
  spec.num_objects = 24;
  spec.num_ticks = 40;
  spec.area = 24.0;
  spec.step = 3.0;
  spec.seed = 19;
  const Dataset data = GenerateRandomWalk(spec);
  const MiningParams params{3, 6, 7.0};
  Rng rng(20261019);
  MemoryStore sorted_store, messy_store;
  OnlineK2HopMiner sorted(&sorted_store, params);
  OnlineK2HopMiner messy(&messy_store, params);
  for (Timestamp t : data.timestamps()) {
    const std::vector<SnapshotPoint> points = SnapshotPoints(data, t);
    ASSERT_TRUE(sorted.AppendTick(t, points).ok());
    std::vector<SnapshotPoint> shuffled = points;
    for (size_t i = 0; i < points.size(); i += 3) {
      shuffled.push_back(points[i]);
    }
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextInt(i)]);
    }
    ASSERT_TRUE(messy.AppendTick(t, std::move(shuffled)).ok());
  }
  EXPECT_EQ(messy.closed_convoys(), sorted.closed_convoys());
  EXPECT_EQ(messy.stats().points_ingested, sorted.stats().points_ingested);
  auto want = sorted.Finalize();
  auto got = messy.Finalize();
  ASSERT_TRUE(want.ok() && got.ok());
  ASSERT_FALSE(want.value().empty()) << "weak test input";
  EXPECT_EQ(got.value(), want.value());
  EXPECT_EQ(messy.stats().validation.reclusterings,
            sorted.stats().validation.reclusterings);
}

TEST(OnlineK2HopTest, StatsAreFilled) {
  std::vector<std::vector<double>> tracks = {std::vector<double>(12, 0.0),
                                             std::vector<double>(12, 0.5)};
  for (int n = 0; n < 6; ++n) {
    std::vector<double> noise;
    for (int t = 0; t < 12; ++t) noise.push_back(500.0 + 97.0 * n + 13.0 * t);
    tracks.push_back(noise);
  }
  const Dataset data = MakeTracks(tracks);
  const MiningParams params{2, 6, 1.0};

  MemoryStore store;
  OnlineK2HopMiner miner(&store, params);
  ASSERT_TRUE(Stream(data, &miner).ok());
  auto result = miner.Finalize();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);

  const OnlineK2HopStats& stats = miner.stats();
  EXPECT_EQ(stats.ticks_ingested, 12u);
  EXPECT_EQ(stats.points_ingested, data.num_points());
  EXPECT_EQ(stats.total_points, data.num_points());
  EXPECT_EQ(stats.benchmark_points, 4u);  // ticks 0,3,6,9 with k=6
  EXPECT_EQ(stats.hop_windows, 3u);
  EXPECT_GT(stats.candidate_clusters, 0u);
  EXPECT_GT(stats.merged_convoys, 0u);
  EXPECT_EQ(stats.append_latency.count(), 12u);
  EXPECT_GT(stats.append_latency.total(), 0.0);
  EXPECT_GT(stats.points_processed(), 0u);
  EXPECT_GT(stats.pruning_ratio(), 0.0);  // noise objects were never re-read
  EXPECT_GT(stats.phases.Get("benchmark"), 0.0);
  EXPECT_FALSE(stats.DebugString().empty());

  // Batch agreement on the same data, for good measure.
  EXPECT_EQ(Str(result.value()), Str(BatchMine(data, params)));
}

}  // namespace
}  // namespace k2
