// Unit tests for the k/2-hop phases, including the paper's own worked
// examples: the Sec. 4.2 candidate-cluster intersection, the Table 2 / Fig. 6
// HWMT run, and the Fig. 5 / Table 3 merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <tuple>

#include "baselines/cmc.h"
#include "baselines/cuts.h"
#include "baselines/dcm.h"
#include "baselines/gold.h"
#include "baselines/spare.h"
#include "cluster/store_clustering.h"
#include "common/rng.h"
#include "core/k2hop.h"
#include "core/online.h"
#include "core/snapshot_slots.h"
#include "core/tick_probe.h"
#include "core/vcoda.h"
#include "gen/synthetic.h"
#include "storage/memory_store.h"
#include "storage/store.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::C;
using ::k2::testing::FetchCountingStore;
using ::k2::testing::kGone;
using ::k2::testing::MakeDataset;
using ::k2::testing::MakeMemStore;
using ::k2::testing::MakeTracks;
using ::k2::testing::RecordingClusterer;
using ::k2::testing::ScratchDir;

// ---------------------------------------------------------------------------
// BenchmarkPoints (Lemma 3 coverage)
// ---------------------------------------------------------------------------

// Every tick of `range`, as the data ticks of a store without gaps.
std::vector<Timestamp> DenseTicks(TimeRange range) {
  std::vector<Timestamp> ticks;
  for (Timestamp t = range.start; t <= range.end; ++t) ticks.push_back(t);
  return ticks;
}

TEST(BenchmarkPointsTest, SpacingIsFloorKHalf) {
  EXPECT_EQ(BenchmarkPoints(DenseTicks({0, 16}), 8),
            (std::vector<Timestamp>{0, 4, 8, 12, 16}));
  EXPECT_EQ(BenchmarkPoints(DenseTicks({0, 10}), 5),
            (std::vector<Timestamp>{0, 2, 4, 6, 8, 10}));
}

TEST(BenchmarkPointsTest, KEqualTwoMakesEveryTickABenchmark) {
  EXPECT_EQ(BenchmarkPoints(DenseTicks({3, 6}), 2),
            (std::vector<Timestamp>{3, 4, 5, 6}));
}

TEST(BenchmarkPointsTest, EmptyRange) {
  EXPECT_TRUE(BenchmarkPoints(DenseTicks({0, -1}), 8).empty());
}

TEST(BenchmarkPointsTest, AGapKeepsOnlyItsFirstAndLastGridPoint) {
  // hop = 2. Grid points 4, 6 and 8 lie in the gap (2, 9): 6 goes. Grid
  // points 4 and 6 lie in the gap (2, 7): both stay.
  EXPECT_EQ(BenchmarkPoints({0, 1, 2, 9, 10}, 4),
            (std::vector<Timestamp>{0, 2, 4, 8, 10}));
  EXPECT_EQ(BenchmarkPoints({0, 1, 2, 7, 8}, 4),
            (std::vector<Timestamp>{0, 2, 4, 6, 8}));
  // A gap wider than INT32_MAX ticks, between the first and the last tick
  // a miner accepts at k = 30; the last tick is off the grid.
  const Timestamp first = kInvalidTimestamp + 1;
  const Timestamp last = std::numeric_limits<Timestamp>::max() - 15;
  EXPECT_EQ(BenchmarkPoints({first, last}, 30),
            (std::vector<Timestamp>{first, first + 15, last - 14}));
}

TEST(BenchmarkPointsTest, Lemma3EveryKWindowContainsTwoConsecutive) {
  // For any placement of a length-k interval inside the range, at least two
  // consecutive benchmark points must fall inside it.
  for (int k = 2; k <= 12; ++k) {
    const TimeRange range{0, 60};
    const std::vector<Timestamp> b = BenchmarkPoints(DenseTicks(range), k);
    for (Timestamp s = range.start; s + k - 1 <= range.end; ++s) {
      const Timestamp e = s + k - 1;
      int longest_consecutive = 0, run = 0;
      for (size_t i = 0; i < b.size(); ++i) {
        if (b[i] >= s && b[i] <= e) {
          run = (i > 0 && b[i - 1] >= s) ? run + 1 : 1;
          longest_consecutive = std::max(longest_consecutive, run);
        }
      }
      ASSERT_GE(longest_consecutive, 2)
          << "k=" << k << " window [" << s << "," << e << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// CandidateClusters — the paper's Sec. 4.2 example
// ---------------------------------------------------------------------------

TEST(CandidateClustersTest, PaperSection42Example) {
  // C1 = {{a,b,c,d},{e,f,g,h},{i,j,k}}, C2 = {{a,b,c},{d,e},{f,g,h},{i,j}}
  // with a..k = 1..11; for m=3 the candidate set is {{a,b,c},{f,g,h}}.
  const std::vector<ObjectSet> c1 = {ObjectSet::Of({1, 2, 3, 4}),
                                     ObjectSet::Of({5, 6, 7, 8}),
                                     ObjectSet::Of({9, 10, 11})};
  const std::vector<ObjectSet> c2 = {
      ObjectSet::Of({1, 2, 3}), ObjectSet::Of({4, 5}), ObjectSet::Of({6, 7, 8}),
      ObjectSet::Of({9, 10})};
  const std::vector<ObjectSet> cc = CandidateClusters(c1, c2, 3);
  ASSERT_EQ(cc.size(), 2u);
  EXPECT_EQ(cc[0], ObjectSet::Of({1, 2, 3}));
  EXPECT_EQ(cc[1], ObjectSet::Of({6, 7, 8}));
}

// Reference implementation of CandidateClusters before the hash-join
// rewrite: all-pairs merge intersections. The randomized property test
// below pins the rewrite to it on disjoint cluster sets.
std::vector<ObjectSet> CandidateClustersAllPairs(
    const std::vector<ObjectSet>& left, const std::vector<ObjectSet>& right,
    int m) {
  std::vector<ObjectSet> out;
  for (const ObjectSet& a : left) {
    for (const ObjectSet& b : right) {
      ObjectSet x = ObjectSet::Intersect(a, b);
      if (x.size() >= static_cast<size_t>(m)) out.push_back(std::move(x));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Random partition of a subset of [0, universe) into disjoint clusters —
// the shape DBSCAN output always has within one tick.
std::vector<ObjectSet> RandomDisjointClusters(Rng* rng, ObjectId universe,
                                              int max_clusters) {
  std::vector<ObjectId> ids;
  for (ObjectId oid = 0; oid < universe; ++oid) {
    if (rng->NextInt(3) != 0) ids.push_back(oid);  // ~2/3 of objects present
  }
  // Shuffle, then cut into random contiguous chunks.
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng->NextInt(i)]);
  }
  std::vector<ObjectSet> clusters;
  size_t at = 0;
  const int n_clusters = 1 + static_cast<int>(rng->NextInt(max_clusters));
  for (int c = 0; c < n_clusters && at < ids.size(); ++c) {
    const size_t remaining = ids.size() - at;
    const size_t take = c + 1 == n_clusters
                            ? remaining
                            : 1 + rng->NextInt(remaining);
    clusters.push_back(ObjectSet(std::vector<ObjectId>(
        ids.begin() + at, ids.begin() + at + take)));
    at += take;
  }
  return clusters;
}

TEST(CandidateClustersTest, HashJoinMatchesAllPairsOnRandomPartitions) {
  Rng rng(20260726);
  for (int trial = 0; trial < 200; ++trial) {
    const ObjectId universe = 2 + static_cast<ObjectId>(rng.NextInt(60));
    const std::vector<ObjectSet> left =
        RandomDisjointClusters(&rng, universe, 6);
    const std::vector<ObjectSet> right =
        RandomDisjointClusters(&rng, universe, 6);
    const int m = 2 + static_cast<int>(rng.NextInt(4));
    const std::vector<ObjectSet> joined = CandidateClusters(left, right, m);
    const std::vector<ObjectSet> reference =
        CandidateClustersAllPairs(left, right, m);
    ASSERT_EQ(joined, reference)
        << "trial " << trial << ": universe=" << universe << " m=" << m
        << " left=" << left.size() << " right=" << right.size();
  }
}

TEST(CandidateClustersTest, EmptyWhenNothingSurvives) {
  EXPECT_TRUE(CandidateClusters({ObjectSet::Of({1, 2})},
                                {ObjectSet::Of({3, 4})}, 2)
                  .empty());
}

// ---------------------------------------------------------------------------
// HWMT — the paper's Fig. 6 / Table 2 example
// ---------------------------------------------------------------------------

// Objects a..j=0..9, x,y,z=10,11,12, m,n,o=13,14,15. Benchmarks b0=0, b1=8
// (k=16). At t=0: {a..j}, {x,y,z}, {m,n,o} cluster; at t=8: {a,b,c,d} and
// {x,y,z}. Candidates: {a,b,c,d} and {x,y,z}. Inside the window {a,b,c,d}
// stay together while {x,y,z} disperse at t=4 => HWMT returns {{a,b,c,d}}.
class HwmtPaperExample : public ::testing::Test {
 protected:
  Dataset MakeData() {
    std::vector<std::vector<double>> tracks;
    // a,b,c,d: together the whole window at x = 0,1,2,3 (eps=1.5 chain).
    for (int i = 0; i < 4; ++i) tracks.push_back(std::vector<double>(9, i * 1.0));
    // e..j: with the a-cluster at t=0 only, then far away, each on its own.
    for (int i = 4; i < 10; ++i) {
      std::vector<double> track(9, 1000.0 + i * 500.0);
      track[0] = 4.0 + (i - 4) * 1.0;
      tracks.push_back(track);
    }
    // x,y,z (10..12): together at t=0..3 and at t=8, dispersed at t=4..7.
    for (int i = 10; i < 13; ++i) {
      std::vector<double> track(9, 0.0);
      for (int t = 0; t <= 8; ++t) {
        const double base = 100.0 + (i - 10) * 1.0;
        if (t >= 4 && t <= 7) {
          track[t] = 2000.0 + i * 300.0 + t * 7.0;  // dispersed
        } else {
          track[t] = base;
        }
      }
      tracks.push_back(track);
    }
    // m,n,o (13..15): together at t=0 only, absent afterwards.
    for (int i = 13; i < 16; ++i) {
      std::vector<double> track(9, kGone);
      track[0] = 200.0 + (i - 13) * 1.0;
      tracks.push_back(track);
    }
    return MakeTracks(tracks);
  }
  const MiningParams params_{3, 16, 1.5};
};

TEST_F(HwmtPaperExample, CandidateClustersMatchPaper) {
  auto store = MakeMemStore(MakeData());
  auto c0 = ClusterSnapshot(store.get(), 0, params_);
  auto c8 = ClusterSnapshot(store.get(), 8, params_);
  ASSERT_TRUE(c0.ok() && c8.ok());
  ASSERT_EQ(c0.value().size(), 3u);  // {a..j}, {x,y,z}, {m,n,o}
  ASSERT_EQ(c8.value().size(), 2u);  // {a,b,c,d}, {x,y,z}
  const auto cc = CandidateClusters(c0.value(), c8.value(), params_.m);
  ASSERT_EQ(cc.size(), 2u);
  EXPECT_EQ(cc[0], ObjectSet::Of({0, 1, 2, 3}));
  EXPECT_EQ(cc[1], ObjectSet::Of({10, 11, 12}));
}

TEST_F(HwmtPaperExample, HwmtPrunesCoincidentalCluster) {
  auto store = MakeMemStore(MakeData());
  const std::vector<ObjectSet> cc = {ObjectSet::Of({0, 1, 2, 3}),
                                     ObjectSet::Of({10, 11, 12})};
  auto spanning = HwmtSpanning(store.get(), params_, 0, 8, cc);
  ASSERT_TRUE(spanning.ok());
  ASSERT_EQ(spanning.value().size(), 1u);
  EXPECT_EQ(spanning.value()[0], ObjectSet::Of({0, 1, 2, 3}));
}

TEST_F(HwmtPaperExample, LeftToRightOrderFindsTheSameSpanningConvoys) {
  auto store = MakeMemStore(MakeData());
  const std::vector<ObjectSet> cc = {ObjectSet::Of({0, 1, 2, 3}),
                                     ObjectSet::Of({10, 11, 12})};
  auto binary = HwmtSpanning(store.get(), params_, 0, 8, cc, true);
  auto linear = HwmtSpanning(store.get(), params_, 0, 8, cc, false);
  ASSERT_TRUE(binary.ok() && linear.ok());
  EXPECT_EQ(binary.value(), linear.value());
}

TEST(HwmtTest, EmptyCandidatesShortCircuit) {
  auto store = MakeMemStore(MakeTracks({{0, 0, 0}, {0, 0, 0}}));
  auto spanning = HwmtSpanning(store.get(), {2, 2, 1.0}, 0, 2, {});
  ASSERT_TRUE(spanning.ok());
  EXPECT_TRUE(spanning.value().empty());
}

TEST(HwmtTest, AdjacentBenchmarksHaveNoInterior) {
  // Hop = 1: candidates pass through untouched (no interior ticks).
  auto store = MakeMemStore(MakeTracks({{0, 0}, {0.5, 0.5}}));
  const std::vector<ObjectSet> cc = {ObjectSet::Of({0, 1})};
  auto spanning = HwmtSpanning(store.get(), {2, 2, 1.0}, 0, 1, cc);
  ASSERT_TRUE(spanning.ok());
  EXPECT_EQ(spanning.value(), cc);
}

TEST(FetchedTickTest, SubsetReadsEqualTheStoresAndChargeNothing) {
  // After one fetch of U at t, every subset of U read at t comes back
  // exactly as the store returns it — absent objects included — with no
  // IoStats charged anywhere; reads at other ticks go to the store.
  Rng rng(20261019);
  std::vector<std::tuple<Timestamp, ObjectId, double, double>> rows;
  for (Timestamp t = 0; t < 6; ++t) {
    for (ObjectId oid = 0; oid < 40; ++oid) {
      if (rng.NextInt(4) == 0) continue;  // absent at this tick
      rows.emplace_back(t, oid, rng.Uniform(0, 50), rng.Uniform(0, 50));
    }
  }
  auto store = MakeMemStore(MakeDataset(rows));
  FetchedTick view;
  size_t absent = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Timestamp t = static_cast<Timestamp>(rng.NextInt(6));
    std::vector<ObjectId> all;
    for (ObjectId oid = 0; oid < 45; ++oid) {  // 40..44 never exist
      if (rng.NextInt(2) == 0) all.push_back(oid);
    }
    const ObjectSet fetched(all);
    ASSERT_TRUE(view.Fetch(store.get(), t, fetched).ok());
    std::vector<ObjectId> part;
    for (ObjectId oid : fetched) {
      if (rng.NextInt(2) == 0) part.push_back(oid);
    }
    const ObjectSet subset(part);
    const IoStats before = store->io_stats();
    std::vector<SnapshotPoint> got, want;
    ASSERT_TRUE(view.GetPoints(t, subset, &got).ok());
    EXPECT_EQ(store->io_stats().point_queries, before.point_queries);
    EXPECT_EQ(store->io_stats().point_fetches, before.point_fetches);
    EXPECT_EQ(view.io_stats().point_queries, 0u);
    ASSERT_TRUE(store->GetPoints(t, subset, &want).ok());
    EXPECT_EQ(got, want) << "tick " << t << " " << subset.DebugString();
    absent += subset.size() - want.size();
    // Another tick is read from the store, and charged there.
    const Timestamp other = (t + 1) % 6;
    const IoStats at_other = store->io_stats();
    ASSERT_TRUE(view.GetPoints(other, subset, &got).ok());
    EXPECT_EQ(store->io_stats().point_queries,
              at_other.point_queries + subset.size());
    ASSERT_TRUE(store->GetPoints(other, subset, &want).ok());
    EXPECT_EQ(got, want) << "tick " << other;
  }
  EXPECT_GT(absent, 0u) << "weak test input: no absent object was asked";
}

TEST(TickProbeTest, UnionFollowsTheAskedIdsNotTheSetsAddresses) {
  // The probe reuses its union while the asked ids repeat. The asked
  // ObjectSets here stay at the same addresses while their ids change
  // between calls, and a proven ask drops out of the union now and then;
  // every answer must still equal ReCluster on the store.
  // Three tight groups of ten objects, far apart; now and then an object
  // strays from its group.
  Rng rng(20261020);
  std::vector<std::tuple<Timestamp, ObjectId, double, double>> rows;
  for (Timestamp t = 0; t < 4; ++t) {
    for (ObjectId oid = 0; oid < 30; ++oid) {
      const double x = rng.NextInt(8) == 0 ? 100.0 + oid * 10.0 : oid / 10 * 20.0;
      rows.emplace_back(t, oid, x + rng.Uniform(0, 1), rng.Uniform(0, 1));
    }
  }
  auto store = MakeMemStore(MakeDataset(rows));
  const MiningParams params{2, 2, 2.5};
  const std::vector<TimeRange> always{{0, 3}};
  std::vector<ObjectSet> sets(3);
  std::vector<TickProbe::Ask> asks(sets.size());
  std::vector<TickProbe::Answer> answers(sets.size());
  TickProbe probe;
  SnapshotScratch scratch;
  size_t wholes = 0, splits = 0;
  for (int trial = 0; trial < 300; ++trial) {
    if (trial % 2 == 0) {  // new ids in the same sets; odd trials repeat
      for (size_t i = 0; i < sets.size(); ++i) {
        do {
          // One group's objects, or objects of every group.
          const ObjectId from = rng.NextInt(2) == 0 ? rng.NextInt(3) * 10 : 0;
          const ObjectId to = from == 0 && rng.NextInt(2) == 0 ? 30 : from + 10;
          std::vector<ObjectId> ids;
          for (ObjectId oid = from; oid < to; ++oid) {
            if (rng.NextInt(3) == 0) ids.push_back(oid);
          }
          sets[i] = ObjectSet(std::move(ids));
        } while (sets[i].size() < 2 ||
                 std::find(sets.begin(), sets.begin() + i, sets[i]) !=
                     sets.begin() + i);
      }
    }
    for (size_t i = 0; i < sets.size(); ++i) {
      const bool proven = i == 0 && trial % 3 == 0;
      asks[i] = TickProbe::Ask{&sets[i], proven ? std::span(always)
                                                : std::span<const TimeRange>()};
    }
    const Timestamp t = static_cast<Timestamp>(rng.NextInt(4));
    ASSERT_TRUE(
        probe.Run(store.get(), t, asks, params, &scratch, answers).ok());
    for (size_t i = 0; i < sets.size(); ++i) {
      if (!asks[i].proven.empty()) {
        EXPECT_TRUE(answers[i].whole);
        continue;
      }
      auto want = ReCluster(store.get(), t, sets[i], params);
      ASSERT_TRUE(want.ok());
      if (answers[i].whole) {
        EXPECT_EQ(want.value(), std::vector<ObjectSet>{sets[i]})
            << "trial " << trial << " ask " << i;
        ++wholes;
      } else {
        EXPECT_EQ(answers[i].clusters, want.value())
            << "trial " << trial << " ask " << i;
        ++splits;
      }
    }
  }
  EXPECT_GT(wholes, 0u) << "weak test input: no set was answered whole";
  EXPECT_GT(splits, 0u) << "weak test input: every set was answered whole";
}

TEST(HwmtTest, OneFetchPerProbedTickForTheUnionOfTheSurvivingSets) {
  // While candidates survive, HWMT reads each probed tick with one
  // GetPoints call whose keys are exactly the sets it re-clusters there.
  size_t folded_ticks = 0;  // ticks that re-clustered more than one set
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomWalkSpec spec;
    spec.num_objects = 30;
    spec.num_ticks = 40;
    spec.area = 24.0;
    spec.step = 3.0;
    spec.seed = seed;
    FetchCountingStore store(GenerateRandomWalk(spec));
    RecordingClusterer clusterer;
    MiningParams params{3, 8, 6.0};
    params.clusterer = &clusterer;
    const std::vector<Timestamp> b =
        BenchmarkPoints(store.timestamps(), params.k);
    std::vector<std::vector<ObjectSet>> clusters;
    for (Timestamp t : b) {
      auto c = ClusterSnapshot(&store, t, params);
      ASSERT_TRUE(c.ok());
      clusters.push_back(c.MoveValue());
    }
    for (size_t w = 0; w + 1 < b.size(); ++w) {
      store.fetches.clear();
      clusterer.calls.clear();
      auto spanning =
          HwmtSpanning(&store, params, b[w], b[w + 1],
                       CandidateClusters(clusters[w], clusters[w + 1],
                                         params.m));
      ASSERT_TRUE(spanning.ok());
      // (tick, Σ|S|) over the ReCluster calls, grouped by tick in order.
      std::vector<std::pair<Timestamp, size_t>> want;
      std::set<ObjectId> tick_objects;
      size_t tick_sets = 0;
      for (const auto& [t, set] : clusterer.calls) {
        if (want.empty() || want.back().first != t) {
          want.emplace_back(t, 0);
          tick_objects.clear();
          tick_sets = 0;
        }
        want.back().second += set.size();
        for (ObjectId oid : set) {
          EXPECT_TRUE(tick_objects.insert(oid).second)
              << "sets re-clustered at tick " << t << " overlap";
        }
        if (++tick_sets == 2) ++folded_ticks;
      }
      EXPECT_EQ(store.fetches, want) << "seed " << seed << ", window " << w;
    }
  }
  EXPECT_GT(folded_ticks, 0u) << "weak test input";
}

// ---------------------------------------------------------------------------
// Merge — the paper's Fig. 5 / Table 3 example
// ---------------------------------------------------------------------------

/// Folds `spanning[w]` as the window that starts at `benchmarks[w]`, then
/// finishes at the last benchmark; returns every death.
std::vector<Convoy> Merge(const std::vector<std::vector<ObjectSet>>& spanning,
                          const std::vector<Timestamp>& benchmarks, int m) {
  SpanningConvoyMerger merger(m);
  std::vector<Convoy> died;
  for (size_t w = 0; w < spanning.size(); ++w) {
    merger.AddWindow(benchmarks[w], spanning[w], &died);
  }
  merger.Finish(benchmarks.back(), &died);
  return died;
}

TEST(MergeTest, PaperTable3Example) {
  // Objects a..k = 1..11. Four hop-windows [b0,b1],[b1,b2],[b2,b3],[b3,b4].
  // H0: {a,b,c,d}, {e,f,g,h}, {i,j,k}
  // H1: {a,b,c,d}, {e,f},{g,h}
  // H2: {a,b,e,f}, {c,d,g,h}, {i,j,k}
  // H3: {a,b}, {c,d,g,h}, {e,f}
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
  // Expected maximal spanning convoys (Table 3, final column plus the
  // finished rows of earlier columns):
  const std::vector<Convoy> expected = {
      C({1, 2, 3, 4}, 0, 8),   // {a,b,c,d} [b0,b2]
      C({5, 6, 7, 8}, 0, 4),   // {e,f,g,h} [b0,b1]
      C({9, 10, 11}, 0, 4),    // {i,j,k}   [b0,b1]
      C({1, 2}, 0, 16),        // {a,b}     [b0,b4]
      C({3, 4}, 0, 16),        // {c,d}     [b0,b4]
      C({5, 6}, 0, 16),        // {e,f}     [b0,b4]
      C({7, 8}, 0, 16),        // {g,h}     [b0,b4]
      C({3, 4, 7, 8}, 8, 16),  // {c,d,g,h} [b2,b4]
      C({1, 2, 5, 6}, 8, 12),  // {a,b,e,f} [b2,b3]
      C({9, 10, 11}, 8, 12),   // {i,j,k}   [b2,b3]
  };
  EXPECT_SAME_CONVOYS(Merge(spanning, benchmarks, 2), expected);
}

TEST(MergeTest, EmptyWindowBreaksChains) {
  const std::vector<Timestamp> benchmarks{0, 4, 8};
  const std::vector<std::vector<ObjectSet>> spanning = {
      {ObjectSet::Of({1, 2})}, {}};
  const auto merged = Merge(spanning, benchmarks, 2);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], C({1, 2}, 0, 4));
}

TEST(MergeTest, NoWindows) {
  EXPECT_TRUE(Merge({}, {0}, 2).empty());
}

// ---------------------------------------------------------------------------
// Extension
// ---------------------------------------------------------------------------

TEST(ExtendTest, RightExtensionFindsActualEnd) {
  // {0,1} together t=0..6, apart from t=7.
  auto store = MakeMemStore(MakeTracks({{0, 0, 0, 0, 0, 0, 0, 50, 50, 50},
                                        {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5,
                                         99, 99, 99}}));
  auto out = ExtendRight(store.get(), {2, 4, 1.0}, {C({0, 1}, 0, 4)}, 9);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 0, 6));
}

TEST(ExtendTest, LeftExtensionFindsActualStart) {
  auto store = MakeMemStore(MakeTracks({{50, 0, 0, 0, 0, 0}, {99, 0.5, 0.5, 0.5, 0.5, 0.5}}));
  auto out = ExtendLeft(store.get(), {2, 3, 1.0}, {C({0, 1}, 3, 5)}, 0);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 1, 5));
}

TEST(ExtendTest, SplitDuringExtensionKeepsBothPieces) {
  // {0,1,2} together t=0..3; at t=4..5 only {0,1} stay together.
  auto store = MakeMemStore(MakeTracks({{0, 0, 0, 0, 0, 0},
                                        {0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
                                        {1.0, 1.0, 1.0, 1.0, 77, 77}}));
  auto out = ExtendRight(store.get(), {2, 2, 1.0}, {C({0, 1, 2}, 0, 3)}, 5);
  ASSERT_TRUE(out.ok());
  const std::vector<Convoy> expected = {C({0, 1}, 0, 5), C({0, 1, 2}, 0, 3)};
  EXPECT_SAME_CONVOYS(out.value(), expected);
}

TEST(ExtendTest, ExtensionStopsAtDatasetBoundary) {
  auto store = MakeMemStore(MakeTracks({{0, 0, 0}, {0.5, 0.5, 0.5}}));
  auto out = ExtendRight(store.get(), {2, 2, 1.0}, {C({0, 1}, 0, 1)}, 2);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 0, 2));
}

// ---------------------------------------------------------------------------
// Proofs — what HWMT and the walks report must hold, tick by tick
// ---------------------------------------------------------------------------

TEST(ProofBookTest, FoldsOverlappingAndAdjacentRangesPerObjectSet) {
  const ObjectSet a = ObjectSet::Of({1, 2, 3});
  ProofBook book;
  book.Add({a, {10, 12}});
  book.Add({a, {20, 25}});
  book.Add({a, {0, 3}});
  book.Add({a, {5, 4}});  // empty: ignored
  EXPECT_EQ(std::vector<TimeRange>(book.Find(a).begin(), book.Find(a).end()),
            (std::vector<TimeRange>{{0, 3}, {10, 12}, {20, 25}}));
  book.Add({a, {13, 19}});  // touches both neighbours
  book.Add({a, {2, 4}});    // overlaps the first
  EXPECT_EQ(std::vector<TimeRange>(book.Find(a).begin(), book.Find(a).end()),
            (std::vector<TimeRange>{{0, 4}, {10, 25}}));
  EXPECT_TRUE(book.Find(ObjectSet::Of({1, 2})).empty());
}

// Re-checks a proof the slow way: ReCluster at every tick of the run must
// return exactly the run's object set.
void ExpectProven(Store* store, const MiningParams& params,
                  const ProvenRun& run) {
  ASSERT_FALSE(run.ticks.empty());
  for (Timestamp t = run.ticks.start; t <= run.ticks.end; ++t) {
    auto clusters = ReCluster(store, t, run.objects, params);
    ASSERT_TRUE(clusters.ok());
    ASSERT_EQ(clusters.value(), std::vector<ObjectSet>{run.objects})
        << run.objects.DebugString() << " is not proven at tick " << t;
  }
}

TEST(ProofTest, HwmtAndWalkProofsHoldOnRandomWalks) {
  // HWMT proves the window interior of each candidate that survives it
  // unsplit, and nothing else: a survivor born from a split was not asked
  // before its birth.
  size_t hwmt_runs = 0, split_survivors = 0, walk_runs = 0,
         split_born_runs = 0;
  for (uint64_t seed : {3u, 11u, 29u, 47u}) {
    RandomWalkSpec spec;
    spec.num_objects = 30;
    spec.num_ticks = 40;
    spec.area = 24.0;
    spec.step = 3.0;
    spec.seed = seed;
    auto store = MakeMemStore(GenerateRandomWalk(spec));
    const MiningParams params{3, 8, 6.0};
    const TimeRange range = store->time_range();
    const std::vector<Timestamp> b =
        BenchmarkPoints(store->timestamps(), params.k);
    std::vector<std::vector<ObjectSet>> clusters;
    for (Timestamp t : b) {
      auto c = ClusterSnapshot(store.get(), t, params);
      ASSERT_TRUE(c.ok());
      clusters.push_back(c.MoveValue());
    }
    for (size_t w = 0; w + 1 < b.size(); ++w) {
      const std::vector<ObjectSet> candidates =
          CandidateClusters(clusters[w], clusters[w + 1], params.m);
      std::vector<ProvenRun> proven;
      auto spanning = HwmtSpanning(store.get(), params, b[w], b[w + 1],
                                   candidates, /*binary_order=*/true,
                                   /*verify_right_benchmark=*/false, nullptr,
                                   &proven);
      ASSERT_TRUE(spanning.ok());
      std::vector<ObjectSet> want, got;
      for (const ObjectSet& s : spanning.value()) {
        if (std::find(candidates.begin(), candidates.end(), s) !=
            candidates.end()) {
          want.push_back(s);
        } else {
          ++split_survivors;
        }
      }
      for (const ProvenRun& run : proven) {
        EXPECT_EQ(run.ticks, (TimeRange{b[w] + 1, b[w + 1] - 1}));
        ExpectProven(store.get(), params, run);
        got.push_back(run.objects);
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want);
      hwmt_runs += proven.size();
    }
    // Every benchmark cluster seeds a walk each way to the dataset edge.
    for (size_t i = 0; i < b.size(); ++i) {
      for (const ObjectSet& seed_set : clusters[i]) {
        for (int dir : {+1, -1}) {
          const Timestamp limit = dir > 0 ? range.end : range.start;
          WalkGroup walk(dir);
          walk.Start(Convoy(seed_set, b[i], b[i]));
          std::vector<Convoy> completed;
          std::vector<ProvenRun> proven;
          ASSERT_TRUE(walk.Advance(store.get(), params, limit, &completed,
                                   nullptr, &proven)
                          .ok());
          walk.Flush(limit, &completed, &proven);
          for (const ProvenRun& run : proven) {
            ExpectProven(store.get(), params, run);
            if (run.objects != seed_set) ++split_born_runs;
          }
          walk_runs += proven.size();
        }
      }
    }
  }
  EXPECT_GT(hwmt_runs, 0u) << "weak test input";
  EXPECT_GT(split_survivors, 0u) << "weak test input: no survivor split";
  EXPECT_GT(walk_runs, 0u) << "weak test input";
  EXPECT_GT(split_born_runs, 0u) << "weak test input: no branch split";
}

TEST(ProofTest, SplitBornBranchIsNotProvenAtItsBirthTick) {
  // m = 4, eps = 1. At ticks 0-2 all eleven objects form one blob. At tick
  // 3 they split into Y1 = {0..4} and Y2 = {5..10}: border point 4 (x=1.8)
  // goes to Y1, which expands first, although core point 5 (x=2.7) of Y2
  // needs it as its fourth neighbour. Re-clustered alone at tick 3, Y2
  // loses that core, and with it object 6, reachable only through 5. At
  // ticks 4-5 Y1 and Y2 are far apart, each tight.
  const double tick3[11][2] = {{0.0, 0}, {0.3, 0}, {0.6, 0}, {0.9, 0},
                               {1.8, 0}, {2.7, 0}, {2.7, 0.9}, {3.6, 0},
                               {4.0, 0}, {4.4, 0}, {4.2, 0.3}};
  std::vector<std::tuple<Timestamp, ObjectId, double, double>> rows;
  for (ObjectId o = 0; o < 11; ++o) {
    for (Timestamp t = 0; t < 3; ++t) rows.emplace_back(t, o, 0.05 * o, 0.0);
    rows.emplace_back(3, o, tick3[o][0], tick3[o][1]);
    for (Timestamp t = 4; t < 6; ++t) {
      rows.emplace_back(t, o, (o < 5 ? 0.0 : 100.0) + 0.05 * o, 0.0);
    }
  }
  auto store = MakeMemStore(MakeDataset(rows));
  const MiningParams params{4, 2, 1.0};
  const ObjectSet x = ObjectSet::Of({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  const ObjectSet y1 = ObjectSet::Of({0, 1, 2, 3, 4});
  const ObjectSet y2 = ObjectSet::Of({5, 6, 7, 8, 9, 10});
  ASSERT_EQ(ReCluster(store.get(), 3, x, params).value(),
            (std::vector<ObjectSet>{y1, y2}));
  ASSERT_EQ(ReCluster(store.get(), 3, y2, params).value(),
            (std::vector<ObjectSet>{ObjectSet::Of({5, 7, 8, 9, 10})}));

  WalkGroup walk(+1);
  walk.Start(Convoy(x, 0, 2));
  std::vector<Convoy> completed;
  std::vector<ProvenRun> proven;
  ASSERT_TRUE(
      walk.Advance(store.get(), params, 5, &completed, nullptr, &proven).ok());
  walk.Flush(5, &completed, &proven);
  EXPECT_SAME_CONVOYS(completed, (std::vector<Convoy>{
                                     Convoy(x, 0, 2), Convoy(y1, 0, 5),
                                     Convoy(y2, 0, 5)}));
  ASSERT_EQ(proven.size(), 2u);
  for (const ProvenRun& run : proven) {
    EXPECT_EQ(run.ticks, (TimeRange{4, 5})) << run.objects.DebugString();
    ExpectProven(store.get(), params, run);
  }
}

// ---------------------------------------------------------------------------
// Walk groups — lockstep walks share a tick's fetch and answers
// ---------------------------------------------------------------------------

// A dense random walk, its benchmark clusters as walk seeds (a seed per
// cluster and direction, starting at its benchmark), and a book of what
// HWMT proved, so that some walk ticks are answered by proofs.
struct WalkFixture {
  Dataset data;
  MiningParams params{3, 8, 6.0};
  std::vector<Convoy> seeds;
  ProofBook book;

  explicit WalkFixture(uint64_t seed) {
    RandomWalkSpec spec;
    spec.num_objects = 30;
    spec.num_ticks = 40;
    spec.area = 24.0;
    spec.step = 3.0;
    spec.seed = seed;
    data = GenerateRandomWalk(spec);
    auto store = MakeMemStore(data);
    const std::vector<Timestamp> b =
        BenchmarkPoints(store->timestamps(), params.k);
    std::vector<std::vector<ObjectSet>> clusters;
    for (Timestamp t : b) {
      clusters.push_back(ClusterSnapshot(store.get(), t, params).value());
      for (const ObjectSet& c : clusters.back()) seeds.emplace_back(c, t, t);
    }
    for (size_t w = 0; w + 1 < b.size(); ++w) {
      std::vector<ProvenRun> proven;
      K2_CHECK(HwmtSpanning(store.get(), params, b[w], b[w + 1],
                            CandidateClusters(clusters[w], clusters[w + 1],
                                              params.m),
                            true, false, nullptr, &proven)
                   .ok());
      book.Add(proven);
    }
  }
};

using Runs = std::multiset<std::tuple<ObjectSet, Timestamp, Timestamp>>;

void AddRuns(const std::vector<ProvenRun>& proven, Runs* runs) {
  for (const ProvenRun& r : proven) {
    runs->emplace(r.objects, r.ticks.start, r.ticks.end);
  }
}

TEST(WalkGroupTest, LockstepGroupEqualsEachWalkAlone) {
  // A group's pieces and proof runs are those of its walks run alone:
  // every (t, S) answer depends on the store and the book only. Seeds of one start tick walk in lockstep; the
  // whole seed list also mixes start ticks, so late walks catch up.
  size_t shared = 0;
  for (uint64_t seed : {3u, 11u, 29u}) {
    WalkFixture f(seed);
    auto store = MakeMemStore(f.data);
    const TimeRange range = store->time_range();
    for (int dir : {+1, -1}) {
      const Timestamp limit = dir > 0 ? range.end : range.start;
      // Every seed, then per start tick.
      std::vector<std::vector<Convoy>> groups = {f.seeds};
      std::map<Timestamp, std::vector<Convoy>> by_start;
      for (const Convoy& s : f.seeds) by_start[s.start].push_back(s);
      for (auto& [t, g] : by_start) groups.push_back(g);
      for (const std::vector<Convoy>& seeds : groups) {
        std::vector<Convoy> want;
        Runs want_runs;
        uint64_t alone_calls = 0;
        for (const Convoy& s : seeds) {
          WalkGroup walk(dir);
          walk.Start(s);
          std::vector<ProvenRun> proven;
          SnapshotScratch scratch;
          ASSERT_TRUE(walk.Advance(store.get(), f.params, limit, &want,
                                   &scratch, &proven, &f.book)
                          .ok());
          walk.Flush(limit, &want, &proven);
          AddRuns(proven, &want_runs);
          alone_calls += scratch.reclusterings;
        }
        WalkGroup group(dir);
        for (const Convoy& s : seeds) group.Start(s);
        std::vector<Convoy> got;
        std::vector<ProvenRun> proven;
        SnapshotScratch scratch;
        ASSERT_TRUE(group.Advance(store.get(), f.params, limit, &got,
                                  &scratch, &proven, &f.book)
                        .ok());
        group.Flush(limit, &got, &proven);
        Runs got_runs;
        AddRuns(proven, &got_runs);
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " dir=" + std::to_string(dir));
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want);
        EXPECT_EQ(got_runs, want_runs);
        EXPECT_LE(scratch.reclusterings, alone_calls);
        if (scratch.reclusterings < alone_calls) ++shared;
      }
    }
  }
  EXPECT_GT(shared, 0u) << "weak test input: no walks shared an answer";
}

TEST(WalkGroupTest, OneFetchPerTickForTheUnionOfTheUnprovenBranchSets) {
  // At each tick a group re-clusters each distinct unproven branch set
  // once, reads them with one GetPoints call for their union, and asks
  // nothing the book proves.
  size_t shared_ticks = 0;
  for (uint64_t seed : {3u, 11u}) {
    WalkFixture f(seed);
    FetchCountingStore store(f.data);
    RecordingClusterer clusterer;
    MiningParams params = f.params;
    params.clusterer = &clusterer;
    std::map<Timestamp, std::vector<Convoy>> by_start;
    for (const Convoy& s : f.seeds) by_start[s.end].push_back(s);
    for (const auto& [start, seeds] : by_start) {
      WalkGroup group(+1);
      for (const Convoy& s : seeds) group.Start(s);
      store.fetches.clear();
      clusterer.calls.clear();
      std::vector<Convoy> completed;
      ASSERT_TRUE(group.Advance(&store, params, store.time_range().end,
                                &completed, nullptr, nullptr, &f.book)
                      .ok());
      std::map<Timestamp, std::set<ObjectSet>> sets;
      for (const auto& [t, set] : clusterer.calls) {
        EXPECT_TRUE(sets[t].insert(set).second)
            << set.DebugString() << " re-clustered twice at tick " << t;
        for (const TimeRange& r : f.book.Find(set)) {
          EXPECT_FALSE(r.Contains(t)) << "a proven (t, S) was re-clustered";
        }
      }
      std::vector<std::pair<Timestamp, size_t>> want;
      for (const auto& [t, tick_sets] : sets) {
        std::set<ObjectId> keys;
        for (const ObjectSet& s : tick_sets) keys.insert(s.begin(), s.end());
        want.emplace_back(t, keys.size());
        if (tick_sets.size() > 1) ++shared_ticks;
      }
      EXPECT_EQ(store.fetches, want) << "start " << start;
    }
  }
  EXPECT_GT(shared_ticks, 0u) << "weak test input";
}

TEST(WalkGroupTest, ExtendIsIdenticalForEveryThreadCount) {
  // Groups fan out over the slots and read the book the earlier phases
  // built; the pieces, the proofs they add and every counter are the same
  // for every slot count.
  for (uint64_t seed : {3u, 29u}) {
    WalkFixture f(seed);
    auto store = MakeMemStore(f.data);
    for (int dir : {+1, -1}) {
      const Timestamp limit =
          dir > 0 ? store->time_range().end : store->time_range().start;
      std::vector<Convoy> want;
      uint64_t want_calls = 0, want_points = 0, want_fetches = 0;
      std::vector<std::vector<TimeRange>> want_proofs;
      for (int threads : {1, 2, 4}) {
        ProofBook book = f.book;
        SnapshotSlots slots(store.get(), threads);
        auto extended = slots.Extend(f.params, f.seeds, limit, dir, &book);
        ASSERT_TRUE(extended.ok()) << extended.status().ToString();
        std::vector<std::vector<TimeRange>> proofs;
        for (const Convoy& c : extended.value()) {
          const std::span<const TimeRange> r = book.Find(c.objects);
          proofs.emplace_back(r.begin(), r.end());
        }
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " dir=" + std::to_string(dir) +
                     " threads=" + std::to_string(threads));
        if (threads == 1) {
          ASSERT_FALSE(extended.value().empty()) << "weak test input";
          want = extended.value();
          want_calls = slots.reclusterings();
          want_points = slots.probed_points();
          want_fetches = slots.io().point_fetches;
          want_proofs = proofs;
          continue;
        }
        EXPECT_EQ(extended.value(), want);
        EXPECT_EQ(slots.reclusterings(), want_calls);
        EXPECT_EQ(slots.probed_points(), want_points);
        EXPECT_EQ(slots.io().point_fetches, want_fetches);
        EXPECT_EQ(proofs, want_proofs);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end driver behaviour
// ---------------------------------------------------------------------------

TEST(K2HopTest, RangeShorterThanKYieldsNothing) {
  auto store = MakeMemStore(MakeTracks({{0, 0}, {0.5, 0.5}}));
  auto out = MineK2Hop(store.get(), {2, 5, 1.0});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST(K2HopTest, InvalidParamsRejected) {
  auto store = MakeMemStore(MakeTracks({{0, 0}}));
  EXPECT_FALSE(MineK2Hop(store.get(), {1, 5, 1.0}).ok());
  EXPECT_FALSE(MineK2Hop(store.get(), {2, 0, 1.0}).ok());
  EXPECT_FALSE(MineK2Hop(store.get(), {2, 5, -1.0}).ok());
}

TEST(K2HopTest, StatsAreFilled) {
  // A clean convoy over 12 ticks plus scattered noise.
  std::vector<std::vector<double>> tracks = {
      std::vector<double>(12, 0.0), std::vector<double>(12, 0.5)};
  for (int n = 0; n < 6; ++n) {
    std::vector<double> noise;
    for (int t = 0; t < 12; ++t) noise.push_back(500.0 + 97.0 * n + 13.0 * t);
    tracks.push_back(noise);
  }
  auto store = MakeMemStore(MakeTracks(tracks));
  K2HopStats stats;
  auto out = MineK2Hop(store.get(), {2, 6, 1.0}, {}, &stats);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 0, 11));

  EXPECT_EQ(stats.benchmark_points, 4u);  // ticks 0,3,6,9 with k=6
  EXPECT_EQ(stats.hop_windows, 3u);
  EXPECT_GT(stats.candidate_clusters, 0u);
  EXPECT_GT(stats.prevalidation_convoys, 0u);
  EXPECT_EQ(stats.total_points, store->num_points());
  EXPECT_GT(stats.points_processed(), 0u);
  EXPECT_GT(stats.pruning_ratio(), 0.0);  // noise was pruned
  EXPECT_GT(stats.phases.Total(), 0.0);
  EXPECT_GE(stats.phases.Get("HWMT"), 0.0);
}

TEST(K2HopTest, PrunesNoiseObjectsFromPointReads) {
  // 2 convoy objects + 30 noise objects; HWMT point reads should only ever
  // touch candidate objects, so the pruning ratio must be high.
  std::vector<std::vector<double>> tracks = {std::vector<double>(20, 0.0),
                                             std::vector<double>(20, 0.4)};
  for (int n = 0; n < 30; ++n) {
    std::vector<double> noise;
    for (int t = 0; t < 20; ++t) noise.push_back(300.0 + n * 41.0 + t * 17.0);
    tracks.push_back(noise);
  }
  auto store = MakeMemStore(MakeTracks(tracks));
  K2HopStats stats;
  auto out = MineK2Hop(store.get(), {2, 8, 1.0}, {}, &stats);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_GT(stats.pruning_ratio(), 0.5);
}

TEST(K2HopTest, ValidateFalseReturnsPartiallyConnectedCandidates) {
  auto store = MakeMemStore(MakeTracks({std::vector<double>(10, 0.0),
                                        std::vector<double>(10, 0.5)}));
  K2HopOptions options;
  options.validate = false;
  auto out = MineK2Hop(store.get(), {2, 4, 1.0}, options);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 0, 9));
}

TEST(K2HopTest, ValidationReadsOnlyTheBenchmarkTicksOfAGroupThatNeverSplits) {
  // Objects 0-2 travel together over ticks [5, 44] of [0, 49]; twelve noise
  // objects stay far from everything. HWMT proves every window interior
  // and the right walk proves 41-44, so FC validation re-clusters only the
  // benchmark ticks 5, 10, ..., 40 (k = 10, hop 5), in batch and online.
  std::vector<std::vector<double>> tracks;
  for (int i = 0; i < 3; ++i) {
    std::vector<double> track(50, kGone);
    for (int t = 5; t <= 44; ++t) track[t] = t + 0.4 * i;
    tracks.push_back(track);
  }
  for (int n = 0; n < 12; ++n) {
    std::vector<double> track;
    for (int t = 0; t < 50; ++t) track.push_back(1000.0 * (n + 1) + t);
    tracks.push_back(track);
  }
  const Dataset data = MakeTracks(tracks);
  const MiningParams params{3, 10, 1.0};
  const std::vector<Convoy> want = {C({0, 1, 2}, 5, 44)};
  const size_t benchmark_ticks = 8;

  auto store = MakeMemStore(data);
  K2HopStats stats;
  auto batch = MineK2Hop(store.get(), params, {}, &stats);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value(), want);
  EXPECT_EQ(stats.validation.reclusterings, benchmark_ticks);
  EXPECT_EQ(stats.validation.proven_ticks, 40 - benchmark_ticks);

  MemoryStore online_store;
  OnlineK2HopMiner miner(&online_store, params);
  for (Timestamp t : data.timestamps()) {
    ASSERT_TRUE(miner.AppendTick(t, SnapshotPoints(data, t)).ok());
  }
  auto online = miner.Finalize();
  ASSERT_TRUE(online.ok());
  EXPECT_EQ(online.value(), want);
  EXPECT_EQ(miner.stats().validation.reclusterings, benchmark_ticks);
  EXPECT_EQ(miner.stats().validation.proven_ticks, 40 - benchmark_ticks);
}

TEST(K2HopTest, ResultsAreIdenticalForEveryThreadCount) {
  // The parallel pipeline must be exactly result-equivalent: benchmark
  // clustering and hop-window verification are gathered by index, so any
  // num_threads yields byte-identical convoy lists. Dense random walks are
  // the adversarial input (chance convoys, splits, merges).
  for (uint64_t seed : {7u, 19u, 42u}) {
    RandomWalkSpec spec;
    spec.num_objects = 24;
    spec.num_ticks = 40;
    spec.area = 24.0;
    spec.step = 3.0;
    spec.seed = seed;
    auto store = MakeMemStore(GenerateRandomWalk(spec));
    const MiningParams params{3, 6, 7.0};

    K2HopOptions options;
    options.num_threads = 1;
    auto sequential = MineK2Hop(store.get(), params, options);
    ASSERT_TRUE(sequential.ok());
    ASSERT_FALSE(sequential.value().empty()) << "weak test input, seed=" << seed;

    for (int threads : {2, 8}) {
      options.num_threads = threads;
      auto parallel = MineK2Hop(store.get(), params, options);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel.value(), sequential.value())
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(K2HopTest, CountsEveryReClusterCallAndEveryFetch) {
  RandomWalkSpec spec;
  spec.num_objects = 24;
  spec.num_ticks = 40;
  spec.area = 24.0;
  spec.step = 3.0;
  spec.seed = 19;
  FetchCountingStore store(GenerateRandomWalk(spec));
  RecordingClusterer clusterer;
  MiningParams params{3, 6, 7.0};
  params.clusterer = &clusterer;
  K2HopOptions options;
  options.num_threads = 1;
  K2HopStats stats;
  auto mined = MineK2Hop(&store, params, options, &stats);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_FALSE(mined.value().empty()) << "weak test input";

  EXPECT_EQ(stats.reclusterings, clusterer.calls.size());
  EXPECT_GT(stats.reclusterings, stats.validation.reclusterings);
  EXPECT_EQ(stats.io.point_fetches, store.fetches.size());
  // Every phase reads a tick once per window, walk group or validation
  // round, for the union of the sets it re-clusters there: fewer fetches
  // than re-clusterings, and no more keys than those sets hold, which is
  // at most what the phases asked (the paper's accounting).
  EXPECT_LT(stats.io.point_fetches, stats.reclusterings);
  uint64_t fetched_keys = 0;
  for (const auto& [t, keys] : store.fetches) fetched_keys += keys;
  uint64_t reclustered_keys = 0;
  for (const auto& [t, set] : clusterer.calls) reclustered_keys += set.size();
  EXPECT_LT(fetched_keys, reclustered_keys);
  EXPECT_LT(reclustered_keys, stats.probed_points);
  EXPECT_EQ(stats.io.point_queries, fetched_keys);
}

// Every phase reads through per-slot store snapshots when num_threads > 1,
// and shards share those slots. On every engine and for one and three
// shards, the convoys, the Table-5 IO counters, the validation counters and
// the seam counters must equal the sequential run's. Run under TSan in CI.
class K2HopEveryStoreTest : public ::testing::TestWithParam<StoreKind> {};

TEST_P(K2HopEveryStoreTest, ConvoysAndCountersIdenticalForEveryThreadCount) {
  RandomWalkSpec spec;
  spec.num_objects = 24;
  spec.num_ticks = 40;
  spec.area = 24.0;
  spec.step = 3.0;
  spec.seed = 19;
  auto created = CreateStore(GetParam(), ScratchDir("threads"));
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Store> store = created.MoveValue();
  ASSERT_TRUE(store->BulkLoad(GenerateRandomWalk(spec)).ok());
  const MiningParams params{3, 6, 7.0};

  for (int shards : {1, 3}) {
    K2HopOptions options;
    options.num_threads = 1;
    options.num_shards = shards;
    K2HopStats want;
    auto sequential = MineK2Hop(store.get(), params, options, &want);
    ASSERT_TRUE(sequential.ok());
    ASSERT_FALSE(sequential.value().empty()) << "weak test input";
    ASSERT_GT(want.validation.split_rounds, 0u) << "weak test input";
    ASSERT_EQ(want.shards, static_cast<size_t>(shards));

    for (int threads : {2, 8}) {
      options.num_threads = threads;
      K2HopStats got;
      auto parallel = MineK2Hop(store.get(), params, options, &got);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(parallel.value(), sequential.value());
      EXPECT_EQ(got.io.snapshot_scans, want.io.snapshot_scans);
      EXPECT_EQ(got.io.scanned_points, want.io.scanned_points);
      EXPECT_EQ(got.io.point_queries, want.io.point_queries);
      EXPECT_EQ(got.io.point_hits, want.io.point_hits);
      EXPECT_EQ(got.io.point_fetches, want.io.point_fetches);
      EXPECT_EQ(got.reclusterings, want.reclusterings);
      EXPECT_EQ(got.validation.candidates_in, want.validation.candidates_in);
      EXPECT_EQ(got.validation.fc_accepted, want.validation.fc_accepted);
      EXPECT_EQ(got.validation.split_rounds, want.validation.split_rounds);
      EXPECT_EQ(got.validation.reclusterings, want.validation.reclusterings);
      EXPECT_EQ(got.validation.proven_ticks, want.validation.proven_ticks);
      EXPECT_EQ(got.seams_crossed, want.seams_crossed);
      EXPECT_EQ(got.stitch_replays, want.stitch_replays);
      EXPECT_EQ(got.adopted_folds, want.adopted_folds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryStore, K2HopEveryStoreTest,
                         ::testing::Values(StoreKind::kMemory, StoreKind::kFile,
                                           StoreKind::kBPlusTree,
                                           StoreKind::kLsm),
                         [](const ::testing::TestParamInfo<StoreKind>& info) {
                           return StoreKindName(info.param);
                         });

// A memory store whose read snapshots fail to open.
class SnapshotlessStore final : public Store {
 public:
  explicit SnapshotlessStore(Dataset dataset) : inner_(std::move(dataset)) {}
  std::string name() const override { return "snapshotless"; }
  Status BulkLoad(const Dataset& dataset) override {
    return inner_.BulkLoad(dataset);
  }
  Status ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) override {
    return inner_.ScanTimestamp(t, out);
  }
  Status GetPoints(Timestamp t, const ObjectSet& objects,
                   std::vector<SnapshotPoint>* out) override {
    return inner_.GetPoints(t, objects, out);
  }
  TimeRange time_range() const override { return inner_.time_range(); }
  const std::vector<Timestamp>& timestamps() const override {
    return inner_.timestamps();
  }
  uint64_t num_points() const override { return inner_.num_points(); }
  Result<std::unique_ptr<Store>> CreateReadSnapshot() override {
    return Status::IOError("snapshot open failed");
  }

 private:
  MemoryStore inner_;
};

TEST(K2HopTest, FailedSnapshotOpenIsTheMinesError) {
  // The calling thread opens every runner's snapshot before a phase starts,
  // so a failed open must surface as the mine's error. One thread reads the
  // store itself and opens no snapshot.
  RandomWalkSpec spec;
  spec.num_objects = 24;
  spec.num_ticks = 40;
  spec.area = 24.0;
  spec.step = 3.0;
  spec.seed = 19;
  const Dataset dataset = GenerateRandomWalk(spec);
  SnapshotlessStore store(dataset);
  const MiningParams params{3, 6, 7.0};
  K2HopOptions options;

  options.num_threads = 2;
  auto failed = MineK2Hop(&store, params, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  EXPECT_EQ(failed.status().message(), "snapshot open failed");

  options.num_threads = 1;
  auto mined = MineK2Hop(&store, params, options);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  auto want = MineK2Hop(MakeMemStore(dataset).get(), params, options);
  ASSERT_TRUE(want.ok());
  ASSERT_FALSE(want.value().empty()) << "weak test input";
  EXPECT_EQ(mined.value(), want.value());
}

// ---------------------------------------------------------------------------
// The minable tick range, (INT32_MIN, INT32_MAX - ⌊k/2⌋]
// ---------------------------------------------------------------------------

Dataset Shifted(const Dataset& data, Timestamp shift) {
  DatasetBuilder builder;
  for (const PointRecord& rec : data.records()) {
    builder.Add(rec.t + shift, rec.oid, rec.x, rec.y);
  }
  return builder.Build();
}

TEST(K2HopTest, EveryMinerRejectsTicksOutsideTheMinableRange) {
  // On ticks [INT32_MAX - 5, INT32_MAX] the benchmark grid would wrap and
  // grow without end, and so would the baselines' tick loops. A range
  // starting at INT32_MIN (kInvalidTimestamp) is out too.
  DatasetBuilder builder;
  for (Timestamp t = 0; t <= 5; ++t) {
    builder.Add(t, 1, 0.0, 0.0);
    builder.Add(t, 2, 0.5, 0.0);
  }
  const Dataset at_zero = builder.Build();
  const MiningParams params{2, 4, 1.0};
  using MineFn = std::function<Result<std::vector<Convoy>>(Store*)>;
  const std::map<std::string, MineFn> miners = {
      {"k2hop", [&](Store* s) { return MineK2Hop(s, params); }},
      {"cmc", [&](Store* s) { return MineCmc(s, params); }},
      {"pccd", [&](Store* s) { return MinePccd(s, params); }},
      {"vcoda", [&](Store* s) { return MineVcoda(s, params); }},
      {"dcm", [&](Store* s) { return MineDcm(s, params); }},
      {"spare", [&](Store* s) { return MineSpare(s, params); }},
      {"cuts", [&](Store* s) { return MineCuts(s, params); }},
  };
  const Timestamp max = std::numeric_limits<Timestamp>::max();
  for (Timestamp shift : {max - 5, kInvalidTimestamp}) {
    auto store = MakeMemStore(Shifted(at_zero, shift));
    for (const auto& [name, mine] : miners) {
      auto mined = mine(store.get());
      ASSERT_FALSE(mined.ok()) << name << " at " << shift;
      EXPECT_EQ(mined.status().code(), StatusCode::kInvalid) << name;
      EXPECT_NE(mined.status().message().find("ticks must lie in"),
                std::string::npos)
          << mined.status().ToString();
    }
  }
}

TEST(K2HopTest, RangeEndingAtTheTickBoundMinesAsAtTickZero) {
  RandomWalkSpec spec;
  spec.num_objects = 12;
  spec.num_ticks = 30;
  spec.area = 50.0;
  spec.step = 6.0;
  spec.seed = 77;
  const Dataset data = GenerateRandomWalk(spec);
  const MiningParams params{2, 6, 9.0};
  // The last tick lands exactly on INT32_MAX - ⌊k/2⌋.
  const Timestamp shift =
      std::numeric_limits<Timestamp>::max() - 3 - data.time_range().end;
  auto want = MineK2Hop(MakeMemStore(data).get(), params);
  auto shifted = MineK2Hop(MakeMemStore(Shifted(data, shift)).get(), params);
  ASSERT_TRUE(want.ok() && shifted.ok()) << shifted.status().ToString();
  ASSERT_FALSE(want.value().empty()) << "weak test input";
  std::vector<Convoy> back;
  for (const Convoy& v : shifted.value()) {
    back.push_back(Convoy(v.objects, v.start - shift, v.end - shift));
  }
  EXPECT_EQ(back, want.value());
}

}  // namespace
}  // namespace k2
