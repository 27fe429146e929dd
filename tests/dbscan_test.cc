// Unit tests for the clustering substrate: grid index region queries,
// DBSCAN semantics ((m,eps)-clusters of paper Def. 2) and the whole-set
// check IsOneDbscanCluster against DBSCAN itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cluster/dbscan.h"
#include "cluster/grid_index.h"
#include "common/object_set.h"
#include "common/rng.h"

namespace k2 {
namespace {

std::vector<SnapshotPoint> Points1D(const std::vector<double>& xs) {
  std::vector<SnapshotPoint> pts;
  for (size_t i = 0; i < xs.size(); ++i) {
    pts.push_back(SnapshotPoint{static_cast<ObjectId>(i), xs[i], 0.0});
  }
  return pts;
}

// ---------------------------------------------------------------------------
// GridIndex
// ---------------------------------------------------------------------------

TEST(GridIndexTest, FindsNeighborsIncludingSelf) {
  const auto pts = Points1D({0.0, 0.5, 3.0});
  GridIndex index(pts, 1.0);
  std::vector<uint32_t> out;
  index.Neighbors(0, 1.0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1}));
}

TEST(GridIndexTest, EpsBoundaryIsInclusive) {
  const auto pts = Points1D({0.0, 1.0});
  GridIndex index(pts, 1.0);
  std::vector<uint32_t> out;
  index.Neighbors(0, 1.0, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(GridIndexTest, NegativeCoordinates) {
  std::vector<SnapshotPoint> pts{{0, -0.4, -0.4}, {1, 0.4, 0.4}, {2, -5, -5}};
  GridIndex index(pts, 2.0);
  std::vector<uint32_t> out;
  index.Neighbors(0, 2.0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1}));
}

TEST(GridIndexTest, NeighborsOfArbitraryLocation) {
  const auto pts = Points1D({0.0, 10.0});
  GridIndex index(pts, 1.0);
  std::vector<uint32_t> out;
  index.NeighborsOf(9.5, 0.0, 1.0, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1}));
}

std::vector<uint32_t> BruteForceNeighborsOf(
    const std::vector<SnapshotPoint>& pts, double x, double y, double eps) {
  std::vector<uint32_t> out;
  for (size_t j = 0; j < pts.size(); ++j) {
    const double dx = pts[j].x - x;
    const double dy = pts[j].y - y;
    if (dx * dx + dy * dy <= eps * eps) {
      out.push_back(static_cast<uint32_t>(j));
    }
  }
  return out;
}

// Property test for the CSR layout: region queries must match brute force
// over random point sets, eps values, and query locations — including a
// reused (rebuilt) index and an eps far below the coordinate spread, which
// exercises the cell cap.
TEST(GridIndexTest, RandomizedMatchesBruteForce) {
  GridIndex reused;  // rebuilt every round: exercises buffer reuse
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const size_t n = 1 + rng.NextInt(250);
    const double spread = rng.Uniform(1.0, 2000.0);
    std::vector<SnapshotPoint> pts;
    for (size_t i = 0; i < n; ++i) {
      pts.push_back(SnapshotPoint{static_cast<ObjectId>(i),
                                  rng.Uniform(-spread, spread),
                                  rng.Uniform(-spread, spread)});
    }
    const double eps_choices[] = {0.001, 0.9, 7.5, spread / 3.0, 3 * spread};
    const double eps = eps_choices[rng.NextInt(5)];
    reused.Build(pts, eps);
    EXPECT_EQ(reused.num_points(), n);

    for (size_t i = 0; i < std::min<size_t>(n, 40); ++i) {
      std::vector<uint32_t> got;
      reused.Neighbors(i, eps, &got);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, BruteForceNeighborsOf(pts, pts[i].x, pts[i].y, eps))
          << "seed=" << seed << " i=" << i << " eps=" << eps;
    }
    // Arbitrary query locations, including far outside the bounding box.
    for (int q = 0; q < 10; ++q) {
      const double x = rng.Uniform(-3 * spread, 3 * spread);
      const double y = rng.Uniform(-3 * spread, 3 * spread);
      std::vector<uint32_t> got;
      reused.NeighborsOf(x, y, eps, &got);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, BruteForceNeighborsOf(pts, x, y, eps))
          << "seed=" << seed << " query=(" << x << "," << y << ")";
    }
  }
}

// Neighbours exactly eps apart, for eps values that are not binary
// fractions: rounding in the cell arithmetic must never push one of them
// out of the 3x3 block the query scans.
TEST(GridIndexTest, NeighborsExactlyEpsApartAreNeverMissed) {
  Rng rng(77);
  for (int trial = 0; trial < 5000; ++trial) {
    const double eps = std::exp(rng.Uniform(-4.0, 4.0));
    const double base = rng.Uniform(-500.0, 500.0);
    std::vector<SnapshotPoint> pts;
    for (size_t i = 0; i < 40; ++i) {
      const double y = rng.Bernoulli(0.5)
                           ? 0.0
                           : eps * static_cast<double>(rng.NextInt(3));
      pts.push_back(SnapshotPoint{
          static_cast<ObjectId>(i),
          base + eps * static_cast<double>(rng.NextInt(8)), y});
    }
    GridIndex index(pts, eps);
    for (size_t i = 0; i < pts.size(); ++i) {
      std::vector<uint32_t> got;
      index.Neighbors(i, eps, &got);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, BruteForceNeighborsOf(pts, pts[i].x, pts[i].y, eps))
          << "trial=" << trial << " i=" << i << " eps=" << eps;
    }
  }
}

TEST(GridIndexTest, TinyEpsOnWideSpreadStaysLinear) {
  // 100 points spread over kilometres with eps in millimetres: the cell cap
  // must keep the grid small instead of allocating a bounding-box grid with
  // billions of cells.
  std::vector<SnapshotPoint> pts;
  for (int i = 0; i < 100; ++i) {
    pts.push_back(SnapshotPoint{static_cast<ObjectId>(i), i * 1000.0,
                                (i % 10) * 2000.0});
  }
  pts.push_back(SnapshotPoint{100, 0.0, 0.0});  // duplicate of point 0
  GridIndex index(pts, 1e-3);
  std::vector<uint32_t> out;
  index.Neighbors(0, 1e-3, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 100}));
}

TEST(GridIndexTest, DiagonalCellsCovered) {
  // Two points in diagonal cells, within eps of each other.
  std::vector<SnapshotPoint> pts{{0, 0.95, 0.95}, {1, 1.05, 1.05}};
  GridIndex index(pts, 1.0);
  std::vector<uint32_t> out;
  index.Neighbors(0, 1.0, &out);
  EXPECT_EQ(out.size(), 2u);
}

// ---------------------------------------------------------------------------
// DBSCAN
// ---------------------------------------------------------------------------

TEST(DbscanTest, EmptyInput) {
  EXPECT_TRUE(Dbscan({}, 1.0, 2).empty());
}

TEST(DbscanTest, SingleGroupClusters) {
  const auto pts = Points1D({0.0, 0.8, 1.6});
  const auto clusters = Dbscan(pts, 1.0, 2);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], ObjectSet::Of({0, 1, 2}));
}

TEST(DbscanTest, TwoSeparatedGroups) {
  const auto pts = Points1D({0.0, 0.5, 100.0, 100.5});
  const auto clusters = Dbscan(pts, 1.0, 2);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], ObjectSet::Of({0, 1}));
  EXPECT_EQ(clusters[1], ObjectSet::Of({2, 3}));
}

TEST(DbscanTest, ChainConnectivity) {
  // A chain where only consecutive points are within eps: density-connected
  // into one cluster when every point is core.
  const auto pts = Points1D({0.0, 0.9, 1.8, 2.7, 3.6});
  const auto clusters = Dbscan(pts, 1.0, 2);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 5u);
}

TEST(DbscanTest, MinPtsCountsSelf) {
  // |NH(p, eps)| >= m includes p itself (Sec. 3.1): two mutual neighbours
  // with m = 2 are both core.
  const auto pts = Points1D({0.0, 0.5});
  EXPECT_EQ(Dbscan(pts, 1.0, 2).size(), 1u);
  // With m = 3, no core points -> no clusters.
  EXPECT_TRUE(Dbscan(pts, 1.0, 3).empty());
}

TEST(DbscanTest, NoisePointsExcluded) {
  const auto pts = Points1D({0.0, 0.5, 50.0});
  const auto clusters = Dbscan(pts, 1.0, 2);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_FALSE(clusters[0].Contains(2));
}

TEST(DbscanTest, BorderPointJoinsCluster) {
  // m = 3: points at 0, 0.5, 1.0 make 0.5 core; 1.4 is border (within eps
  // of the core at 1.0 only after expansion).
  const auto pts = Points1D({0.0, 0.5, 1.0, 1.9});
  const auto clusters = Dbscan(pts, 1.0, 3);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_TRUE(clusters[0].Contains(3));  // border point included
}

TEST(DbscanTest, DuplicatePositionsCluster) {
  std::vector<SnapshotPoint> pts{{0, 5, 5}, {1, 5, 5}, {2, 5, 5}};
  const auto clusters = Dbscan(pts, 0.5, 3);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 3u);
}

TEST(DbscanTest, SubsetRestrictsClustering) {
  // reCluster(DB[t]|O): objects 0,1,2 are chained through 1, so clustering
  // only the points of O = {0, 2} disconnects them.
  const auto pts = Points1D({0.0, 0.9, 1.8});
  const auto all = Dbscan(pts, 1.0, 2);
  ASSERT_EQ(all.size(), 1u);
  const ObjectSet subset = ObjectSet::Of({0, 2});
  std::vector<SnapshotPoint> restricted;
  for (const SnapshotPoint& p : pts) {
    if (subset.Contains(p.oid)) restricted.push_back(p);
  }
  EXPECT_TRUE(Dbscan(restricted, 1.0, 2).empty());  // 0 and 2 are 1.8 apart
}

TEST(DbscanTest, LabelledOutputConsistentWithClusters) {
  const auto pts = Points1D({0.0, 0.5, 10.0, 10.5, 50.0});
  const DbscanLabels labels = DbscanLabelled(pts, 1.0, 2);
  EXPECT_EQ(labels.num_clusters, 2);
  EXPECT_EQ(labels.label[0], labels.label[1]);
  EXPECT_EQ(labels.label[2], labels.label[3]);
  EXPECT_NE(labels.label[0], labels.label[2]);
  EXPECT_EQ(labels.label[4], -1);  // noise
}

TEST(DbscanTest, ClustersAreDisjoint) {
  // Randomish blob: every object must appear in at most one cluster.
  std::vector<SnapshotPoint> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back(SnapshotPoint{static_cast<ObjectId>(i),
                                (i * 37 % 19) * 0.7, (i * 53 % 23) * 0.7});
  }
  const auto clusters = Dbscan(pts, 1.0, 3);
  std::vector<ObjectId> seen;
  for (const auto& c : clusters) {
    for (ObjectId oid : c) seen.push_back(oid);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(DbscanTest, LargeEpsMergesEverything) {
  const auto pts = Points1D({0.0, 3.0, 6.0, 9.0});
  const auto clusters = Dbscan(pts, 100.0, 2);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 4u);
}

// ---------------------------------------------------------------------------
// IsOneDbscanCluster
// ---------------------------------------------------------------------------

// True iff `clusters` is exactly one cluster holding every point.
bool OneClusterOfAll(const std::vector<ObjectSet>& clusters,
                     const std::vector<SnapshotPoint>& pts) {
  return clusters.size() == 1 && clusters[0].size() == pts.size();
}

TEST(IsOneDbscanClusterTest, ChainAndExactEpsAreOneCluster) {
  EXPECT_TRUE(IsOneDbscanCluster(Points1D({0.0, 1.0, 2.0, 3.0}), 1.0, 2));
  EXPECT_FALSE(IsOneDbscanCluster(Points1D({0.0, 1.0, 2.5, 3.5}), 1.0, 2));
}

TEST(IsOneDbscanClusterTest, BorderPointBetweenTwoCoreGroupsIsNotOne) {
  // m = 6, eps = 10: 14 touches both groups (5 neighbours, self included)
  // but is not core, so DBSCAN splits it into two clusters.
  const auto pts = Points1D({0, 1, 2, 3, 4, 5, 14, 23, 24, 25, 26, 27, 28});
  EXPECT_EQ(Dbscan(pts, 10.0, 6).size(), 2u);
  EXPECT_FALSE(IsOneDbscanCluster(pts, 10.0, 6));
  // A second point at 14 makes both core, and the groups join.
  const auto joined =
      Points1D({0, 1, 2, 3, 4, 5, 14, 14, 23, 24, 25, 26, 27, 28});
  EXPECT_TRUE(OneClusterOfAll(Dbscan(joined, 10.0, 6), joined));
  EXPECT_TRUE(IsOneDbscanCluster(joined, 10.0, 6));
}

TEST(IsOneDbscanClusterTest, OutsideTheDecidedRangeIsFalse) {
  EXPECT_FALSE(IsOneDbscanCluster({}, 1.0, 2));
  EXPECT_FALSE(IsOneDbscanCluster(Points1D({0.0}), 1.0, 2));  // n < m
  std::vector<SnapshotPoint> dup;
  for (size_t i = 0; i < kOneClusterMaxPoints + 1; ++i) {
    dup.push_back(SnapshotPoint{static_cast<ObjectId>(i), 5.0, 5.0});
  }
  EXPECT_FALSE(IsOneDbscanCluster(dup, 1.0, 2));  // 65 points: not decided
  dup.pop_back();
  EXPECT_TRUE(IsOneDbscanCluster(dup, 1.0, 2));  // 64 duplicates: one
}

// The property behind the ReCluster fast path: a yes implies DBSCAN returns
// one cluster of every point, and for n <= 64 the converse holds. Counts
// the answers into `yes` / `no`.
void ExpectAgreesWithDbscan(const std::vector<SnapshotPoint>& pts, double eps,
                            int m, DbscanScratch* scratch, size_t* yes,
                            size_t* no) {
  const bool got = IsOneDbscanCluster(pts, eps, m);
  const bool want = OneClusterOfAll(Dbscan(pts, eps, m, scratch), pts);
  if (got) {
    ASSERT_TRUE(want) << "false yes: n=" << pts.size() << " eps=" << eps
                      << " m=" << m;
  } else if (pts.size() <= kOneClusterMaxPoints) {
    ASSERT_FALSE(want) << "missed yes: n=" << pts.size() << " eps=" << eps
                       << " m=" << m;
  }
  ++*(got ? yes : no);
}

// Integer lattices, so distances land exactly on eps and duplicates are
// common. n covers 0..70 (m, 64 and 65 included), eps 1 and 2, m 2..5.
TEST(IsOneDbscanClusterTest, MatchesDbscanOnLatticeSnapshots) {
  Rng rng(20261018);
  DbscanScratch scratch;
  std::vector<SnapshotPoint> pts;
  size_t yes = 0, no = 0;
  for (int trial = 0; trial < 100000; ++trial) {
    const size_t n = rng.NextInt(71);
    const double eps = 1.0 + static_cast<double>(rng.NextInt(2));
    const int m = 2 + static_cast<int>(rng.NextInt(4));
    // Lattice side from 1 (all duplicates) to sparse, so both answers occur.
    const int64_t side = 1 + static_cast<int64_t>(rng.NextInt(2 + n / 3));
    pts.clear();
    for (size_t i = 0; i < n; ++i) {
      pts.push_back(SnapshotPoint{
          static_cast<ObjectId>(i * 3 + 1),
          static_cast<double>(rng.UniformInt(0, side - 1)) - 7.0,
          static_cast<double>(rng.UniformInt(0, side - 1)) + 11.0});
    }
    ASSERT_NO_FATAL_FAILURE(
        ExpectAgreesWithDbscan(pts, eps, m, &scratch, &yes, &no))
        << "trial " << trial;
  }
  // Both answers must be common, or the property says little.
  EXPECT_GT(yes, 20000u);
  EXPECT_GT(no, 20000u);
}

// The same property on lattices scaled by an eps that is not a binary
// fraction, so neighbours sit exactly eps apart only up to rounding, and
// DBSCAN's grid path (n > 32) must find every one the check finds.
TEST(IsOneDbscanClusterTest, MatchesDbscanOnScaledLatticeSnapshots) {
  Rng rng(20261019);
  DbscanScratch scratch;
  std::vector<SnapshotPoint> pts;
  size_t yes = 0, no = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const size_t n = 20 + rng.NextInt(51);
    const double eps = std::exp(rng.Uniform(-4.0, 4.0));
    const int m = 2 + static_cast<int>(rng.NextInt(4));
    const double base = rng.Uniform(-500.0, 500.0);
    const int64_t side = 2 + static_cast<int64_t>(rng.NextInt(n / 6));
    pts.clear();
    for (size_t i = 0; i < n; ++i) {
      pts.push_back(SnapshotPoint{
          static_cast<ObjectId>(i),
          base + eps * static_cast<double>(rng.UniformInt(0, side - 1)),
          eps * static_cast<double>(rng.UniformInt(0, side - 1))});
    }
    ASSERT_NO_FATAL_FAILURE(
        ExpectAgreesWithDbscan(pts, eps, m, &scratch, &yes, &no))
        << "trial " << trial;
  }
  EXPECT_GT(yes, 2000u);
  EXPECT_GT(no, 4000u);
}

}  // namespace
}  // namespace k2
