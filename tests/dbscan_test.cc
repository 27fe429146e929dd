// Unit tests for the clustering substrate: grid index region queries,
// DBSCAN semantics ((m,eps)-clusters of paper Def. 2), DBSCAN's labels
// against the eps-graph clusterer, and the whole-set check
// IsOneDbscanCluster against DBSCAN itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "cluster/dbscan.h"
#include "cluster/graph_core.h"
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
// Labels, border points included, against the eps-graph clusterer
// ---------------------------------------------------------------------------

// A snapshot whose border points are contested. Core groups sit on one row,
// 2*eps apart: each is a centre point (sometimes duplicated) with members
// on the vertical line through it, at most eps away. Between neighbouring
// centres sit midpoints exactly eps from both centres and farther from
// every member, so at larger m a midpoint is a border point that two
// groups reach. A few lattice points add noise. Coordinates are multiples
// of eps/2, so every distance test is exact, and the order is shuffled, so
// either group of a pair may start its cluster first.
std::vector<SnapshotPoint> ContestedSnapshot(Rng* rng, double eps,
                                             int max_groups) {
  const double h = eps / 2.0;
  const double base = h * static_cast<double>(rng->UniformInt(-1000, 1000));
  std::vector<std::pair<double, double>> xy;
  const int groups = 2 + static_cast<int>(rng->NextInt(max_groups - 1));
  for (int g = 0; g < groups; ++g) {
    const double cx = base + 2.0 * eps * g;
    for (int64_t c = rng->UniformInt(1, 2); c > 0; --c) xy.push_back({cx, 0});
    for (int64_t k = rng->UniformInt(1, 5); k > 0; --k) {
      xy.push_back({cx, h * static_cast<double>(rng->UniformInt(-2, 2))});
    }
    if (g > 0) {
      for (int64_t c = rng->UniformInt(1, 2); c > 0; --c) {
        xy.push_back({cx - eps, 0});
      }
    }
  }
  for (int64_t k = rng->UniformInt(0, 3); k > 0; --k) {
    xy.push_back(
        {base + h * static_cast<double>(rng->UniformInt(-2, 4 * groups)),
         h * static_cast<double>(rng->UniformInt(-4, 4))});
  }
  for (size_t i = xy.size(); i > 1; --i) {
    std::swap(xy[i - 1], xy[rng->NextInt(i)]);
  }
  std::vector<SnapshotPoint> pts;
  for (size_t i = 0; i < xy.size(); ++i) {
    pts.push_back(
        SnapshotPoint{static_cast<ObjectId>(i), xy[i].first, xy[i].second});
  }
  return pts;
}

// DbscanLabelled must give every point, border points included, the label
// ClusterGraphLabelled gives it over the snapshot's eps-graph: the same
// ascending start order and first-cluster-wins border rule on explicit
// neighbourhoods. Covers the brute-force path (n <= 32) and the grid
// (n > 32), m 2..6, and requires contested borders on both paths.
TEST(DbscanLabelProperty, MatchesEpsGraphLabelsWithContestedBorders) {
  Rng rng(20261020);
  DbscanScratch scratch;
  GraphClusterScratch graph;
  DbscanLabels want;
  size_t contested[2] = {0, 0};  // [grid path]
  size_t snapshots[2] = {0, 0};
  constexpr double kEps[] = {0.75, 1.0, 1.5, 2.0, 3.0};
  for (int trial = 0; trial < 6000; ++trial) {
    const double eps = kEps[trial % 5];
    const int m = 2 + static_cast<int>(rng.NextInt(5));
    const std::vector<SnapshotPoint> pts =
        ContestedSnapshot(&rng, eps, trial % 2 == 0 ? 3 : 12);
    const size_t n = pts.size();
    // The eps-graph, self excluded, by eps_scan's expression.
    graph.adj_offsets.assign(1, 0);
    graph.adj.clear();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        const double dx = pts[j].x - pts[i].x;
        const double dy = pts[j].y - pts[i].y;
        if (j != i && dx * dx + dy * dy <= eps * eps) {
          graph.adj.push_back(static_cast<uint32_t>(j));
        }
      }
      graph.adj_offsets.push_back(static_cast<uint32_t>(graph.adj.size()));
    }
    ClusterGraphLabelled(n, graph.adj_offsets, graph.adj, m, &graph, &want);
    DbscanLabels got;
    DbscanLabelled(pts, eps, m, &scratch, &got);
    ASSERT_EQ(got.num_clusters, want.num_clusters)
        << "trial " << trial << " n=" << n << " m=" << m;
    ASSERT_EQ(got.label, want.label)
        << "trial " << trial << " n=" << n << " m=" << m;

    // A contested border point: not core, and reached by the cores of two
    // different clusters.
    auto is_core = [&](size_t i) {
      return graph.adj_offsets[i + 1] - graph.adj_offsets[i] + 1 >=
             static_cast<uint32_t>(m);
    };
    const int path = n > 32 ? 1 : 0;
    ++snapshots[path];
    for (size_t i = 0; i < n; ++i) {
      if (is_core(i) || got.label[i] < 0) continue;
      std::set<int32_t> reached_by;
      for (uint32_t e = graph.adj_offsets[i]; e < graph.adj_offsets[i + 1];
           ++e) {
        if (is_core(graph.adj[e])) reached_by.insert(got.label[graph.adj[e]]);
      }
      if (reached_by.size() >= 2) ++contested[path];
    }
  }
  for (int path = 0; path < 2; ++path) {
    EXPECT_GT(snapshots[path], 1000u) << "path " << path;
    EXPECT_GT(contested[path], 300u) << "path " << path;
  }
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
