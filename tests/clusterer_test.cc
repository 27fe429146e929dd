// Unit tests for the SnapshotClusterer seam: dispatch through MiningParams,
// geometric-through-interface equality with direct DBSCAN, the graph
// clustering core (core/border/noise semantics, first-cluster-wins border
// contention), the co-location clusterer's store-joined semantics, and the
// clusterer-aware parameter validation at every miner entry point.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/cmc.h"
#include "cluster/clusterer.h"
#include "cluster/graph_clusterer.h"
#include "cluster/graph_core.h"
#include "cluster/store_clustering.h"
#include "common/rng.h"
#include "core/k2hop.h"
#include "core/online.h"
#include "gen/synthetic.h"
#include "model/proximity.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeMemStore;

std::vector<SnapshotPoint> RandomSnapshot(uint64_t seed, size_t n,
                                          double area) {
  Rng rng(seed);
  std::vector<SnapshotPoint> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(SnapshotPoint{static_cast<ObjectId>(i),
                                   rng.Uniform(0.0, area),
                                   rng.Uniform(0.0, area)});
  }
  return points;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Clusterer that ignores the store and returns a fixed answer — proves the
/// seam dispatches through params.clusterer, not a hard-coded algorithm.
class FixedClusterer final : public SnapshotClusterer {
 public:
  explicit FixedClusterer(std::vector<ObjectSet> answer)
      : answer_(std::move(answer)) {}
  std::string name() const override { return "fixed"; }
  Result<std::vector<ObjectSet>> Cluster(Store*, Timestamp,
                                         const MiningParams&, SnapshotScratch*,
                                         Mutex*) const override {
    return answer_;
  }
  Result<std::vector<ObjectSet>> ReCluster(Store*, Timestamp, const ObjectSet&,
                                           const MiningParams&,
                                           SnapshotScratch*,
                                           Mutex*) const override {
    return answer_;
  }

 private:
  std::vector<ObjectSet> answer_;
};

TEST(ClustererDispatchTest, ParamsClustererWins) {
  const Dataset data = testing::MakeDataset({{0, 1, 0.0, 0.0},
                                             {0, 2, 100.0, 100.0}});
  auto store = MakeMemStore(data);
  const FixedClusterer fixed({ObjectSet::Of({7, 8, 9})});
  MiningParams params;
  params.clusterer = &fixed;

  auto clusters = ClusterSnapshot(store.get(), 0, params);
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ(clusters.value().size(), 1u);
  EXPECT_EQ(clusters.value()[0], ObjectSet::Of({7, 8, 9}));

  auto re = ReCluster(store.get(), 0, ObjectSet::Of({1}), params);
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(re.value()[0], ObjectSet::Of({7, 8, 9}));
}

TEST(ClustererDispatchTest, DefaultIsGeometricUnlessEnvOverrides) {
  const char* env = std::getenv("K2_CLUSTERER");
  const std::string expected =
      (env != nullptr && std::string(env) == "epsgraph") ? "epsgraph"
                                                         : "geometric";
  EXPECT_EQ(DefaultClusterer()->name(), expected);
  MiningParams params;
  EXPECT_EQ(ResolveClusterer(params), DefaultClusterer());
}

TEST(ClustererDispatchTest, GeometricThroughSeamMatchesDirectDbscan) {
  RandomWalkSpec spec;
  spec.seed = 11;
  spec.num_objects = 60;
  spec.num_ticks = 6;
  spec.area = 80.0;
  const Dataset data = GenerateRandomWalk(spec);
  auto store = MakeMemStore(data);
  const GeometricClusterer geometric;
  MiningParams params{3, 2, 9.0};
  params.clusterer = &geometric;
  for (Timestamp t : data.timestamps()) {
    auto via_seam = ClusterSnapshot(store.get(), t, params);
    ASSERT_TRUE(via_seam.ok());
    std::vector<SnapshotPoint> points = SnapshotPoints(data, t);
    EXPECT_EQ(via_seam.value(), Dbscan(points, params.eps, params.m))
        << "tick " << t;
  }
}

// ---------------------------------------------------------------------------
// Graph core
// ---------------------------------------------------------------------------

/// CSR helper: builds adjacency from an undirected edge list over n nodes.
void BuildCsr(size_t n, const std::vector<std::pair<uint32_t, uint32_t>>& edges,
              std::vector<uint32_t>* offsets, std::vector<uint32_t>* adj) {
  std::vector<std::vector<uint32_t>> rows(n);
  for (const auto& [a, b] : edges) {
    rows[a].push_back(b);
    rows[b].push_back(a);
  }
  offsets->assign(1, 0);
  adj->clear();
  for (size_t i = 0; i < n; ++i) {
    std::sort(rows[i].begin(), rows[i].end());
    adj->insert(adj->end(), rows[i].begin(), rows[i].end());
    offsets->push_back(static_cast<uint32_t>(adj->size()));
  }
}

std::vector<ObjectSet> ClusterEdgeList(
    size_t n, const std::vector<std::pair<uint32_t, uint32_t>>& edges,
    int min_pts) {
  std::vector<uint32_t> offsets, adj;
  BuildCsr(n, edges, &offsets, &adj);
  std::vector<ObjectId> oids(n);
  for (size_t i = 0; i < n; ++i) oids[i] = static_cast<ObjectId>(i);
  GraphClusterScratch scratch;
  return GraphClusters(oids, offsets, adj, min_pts, &scratch);
}

TEST(GraphCoreTest, TriangleIsOneCluster) {
  auto clusters = ClusterEdgeList(3, {{0, 1}, {1, 2}, {0, 2}}, 3);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], ObjectSet::Of({0, 1, 2}));
}

TEST(GraphCoreTest, PathEndpointsAreBorderPoints) {
  // 0-1-2-3: with min_pts=3, nodes 1 and 2 are core (deg 2 + self), the
  // endpoints are border and join the same cluster.
  auto clusters = ClusterEdgeList(4, {{0, 1}, {1, 2}, {2, 3}}, 3);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], ObjectSet::Of({0, 1, 2, 3}));
}

TEST(GraphCoreTest, IsolatedAndSparseNodesAreNoise) {
  // Single edge 0-1 with min_pts=3: nobody is core; node 2 is isolated.
  EXPECT_TRUE(ClusterEdgeList(3, {{0, 1}}, 3).empty());
}

TEST(GraphCoreTest, DisconnectedComponentsSplit) {
  auto clusters = ClusterEdgeList(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}, 3);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], ObjectSet::Of({0, 1, 2}));
  EXPECT_EQ(clusters[1], ObjectSet::Of({3, 4, 5}));
}

TEST(GraphCoreTest, ContendedBorderGoesToFirstCluster) {
  // Two triangles {0,1,2} and {4,5,6}; border node 3 hangs off a core of
  // each (edges 2-3 and 4-3). With min_pts=3, node 3 is not core (deg 2 + 1
  // = 3... so it IS core with min_pts=3) — use min_pts=4 cliques instead.
  // K4s {0,1,2,3} and {5,6,7,8}, border node 4 adjacent to core 3 and core
  // 5 only: deg(4)=2, not core at min_pts=4; first cluster (lower node
  // order) claims it.
  std::vector<std::pair<uint32_t, uint32_t>> edges = {
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},  // K4 a
      {5, 6}, {5, 7}, {5, 8}, {6, 7}, {6, 8}, {7, 8},  // K4 b
      {3, 4}, {4, 5}};
  auto clusters = ClusterEdgeList(9, edges, 4);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], ObjectSet::Of({0, 1, 2, 3, 4}));
  EXPECT_EQ(clusters[1], ObjectSet::Of({5, 6, 7, 8}));
}

TEST(GraphCoreTest, ClustersBelowMinPtsAreFiltered) {
  // Star: center 0 with leaves 1..3, min_pts=4 -> center is core with
  // neighbourhood {0,1,2,3}, all leaves border -> cluster size 4 passes.
  // With one fewer leaf the cluster would shrink below min_pts and vanish.
  auto pass = ClusterEdgeList(4, {{0, 1}, {0, 2}, {0, 3}}, 4);
  ASSERT_EQ(pass.size(), 1u);
  EXPECT_EQ(pass[0], ObjectSet::Of({0, 1, 2, 3}));
  EXPECT_TRUE(ClusterEdgeList(3, {{0, 1}, {0, 2}}, 4).empty());
}

// ---------------------------------------------------------------------------
// EpsGraphClusterer == DBSCAN (property, both code paths)
// ---------------------------------------------------------------------------

TEST(EpsGraphClustererTest, MatchesDbscanBruteForceAndGridPaths) {
  SnapshotScratch scratch;
  // n=20 exercises the brute-force path (<= 32), n=200 the grid path.
  for (const size_t n : {0ul, 1ul, 20ul, 200ul}) {
    for (const uint64_t seed : {1, 2, 3, 4, 5}) {
      for (const int min_pts : {2, 3, 5}) {
        const auto points = RandomSnapshot(seed, n, 100.0);
        const double eps = 8.0;
        EXPECT_EQ(EpsGraphClusters(points, eps, min_pts, &scratch),
                  Dbscan(points, eps, min_pts))
            << "n=" << n << " seed=" << seed << " min_pts=" << min_pts;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CoLocationGraphClusterer
// ---------------------------------------------------------------------------

TEST(CoLocationClustererTest, ClustersPresenceStoreAgainstLogEdges) {
  // Tick 0: triangle {1,2,3} plus stray pair {8,9}. Tick 1: only the pair.
  const ProximityLog log = ProximityLog::FromRecords({{0, 1, 2},
                                                      {0, 2, 3},
                                                      {0, 1, 3},
                                                      {0, 8, 9},
                                                      {1, 8, 9}});
  auto store = MakeMemStore(log.PresenceDataset());
  const CoLocationGraphClusterer colocation(&log);
  MiningParams params{3, 2, /*eps=*/0.0};  // eps unused by this substrate
  params.clusterer = &colocation;

  auto t0 = ClusterSnapshot(store.get(), 0, params);
  ASSERT_TRUE(t0.ok());
  ASSERT_EQ(t0.value().size(), 1u);
  EXPECT_EQ(t0.value()[0], ObjectSet::Of({1, 2, 3}));

  auto t1 = ClusterSnapshot(store.get(), 1, params);
  ASSERT_TRUE(t1.ok());
  EXPECT_TRUE(t1.value().empty());  // pair of 2 < m
}

TEST(CoLocationClustererTest, ReClusterRestrictsEdgesToSubset) {
  // K4 {1,2,3,4} at tick 0. Restricted to {1,2,3}, edges to 4 disappear
  // and the triangle remains; restricted to {1,4}, degree drops below m.
  const ProximityLog log = ProximityLog::FromRecords(
      {{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 2, 3}, {0, 2, 4}, {0, 3, 4}});
  auto store = MakeMemStore(log.PresenceDataset());
  const CoLocationGraphClusterer colocation(&log);
  MiningParams params{3, 2, 0.0};
  params.clusterer = &colocation;

  auto sub = ReCluster(store.get(), 0, ObjectSet::Of({1, 2, 3}), params);
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub.value().size(), 1u);
  EXPECT_EQ(sub.value()[0], ObjectSet::Of({1, 2, 3}));

  auto tiny = ReCluster(store.get(), 0, ObjectSet::Of({1, 4}), params);
  ASSERT_TRUE(tiny.ok());
  EXPECT_TRUE(tiny.value().empty());
}

// ---------------------------------------------------------------------------
// Validation hardening
// ---------------------------------------------------------------------------

TEST(ValidateMiningParamsTest, NamedErrors) {
  MiningParams bad_m{1, 4, 1.0};
  const Status m_err = ValidateMiningParams(bad_m);
  EXPECT_EQ(m_err.code(), StatusCode::kInvalid);
  EXPECT_NE(m_err.message().find("m must be >= 2"), std::string::npos)
      << m_err.message();

  MiningParams bad_k{3, 1, 1.0};
  const Status k_err = ValidateMiningParams(bad_k);
  EXPECT_EQ(k_err.code(), StatusCode::kInvalid);
  EXPECT_NE(k_err.message().find("k must be >= 2"), std::string::npos)
      << k_err.message();

  MiningParams bad_eps{3, 4, 0.0};
  bad_eps.clusterer = nullptr;
  const GeometricClusterer geometric;
  bad_eps.clusterer = &geometric;
  const Status eps_err = ValidateMiningParams(bad_eps);
  EXPECT_EQ(eps_err.code(), StatusCode::kInvalid);
  EXPECT_NE(eps_err.message().find("eps must be > 0"), std::string::npos)
      << eps_err.message();

  EXPECT_TRUE(ValidateMiningParams(MiningParams{2, 2, 0.5}).ok());
}

TEST(ValidateMiningParamsTest, EpsIsClustererSpecific) {
  // The co-location substrate does not interpret eps; eps <= 0 is fine.
  const ProximityLog log = ProximityLog::FromRecords({{0, 1, 2}});
  const CoLocationGraphClusterer colocation(&log);
  MiningParams params{3, 4, 0.0};
  params.clusterer = &colocation;
  EXPECT_TRUE(ValidateMiningParams(params).ok());
}

TEST(ValidateMiningParamsTest, RejectedAtEveryMinerEntryPoint) {
  const Dataset data = testing::MakeDataset({{0, 1, 0.0, 0.0}});
  auto store = MakeMemStore(data);
  const MiningParams bad{1, 2, 1.0};

  EXPECT_EQ(MineK2Hop(store.get(), bad).status().code(),
            StatusCode::kInvalid);
  EXPECT_EQ(MineCmc(store.get(), bad).status().code(), StatusCode::kInvalid);
  EXPECT_EQ(MinePccd(store.get(), bad).status().code(), StatusCode::kInvalid);

  EXPECT_EQ(MineK2Hop(store.get(), bad, {.num_shards = 3}).status().code(),
            StatusCode::kInvalid);

  MemoryStore empty;
  OnlineK2HopMiner online(&empty, bad);
  EXPECT_EQ(online.Finalize().status().code(), StatusCode::kInvalid);
}

}  // namespace
}  // namespace k2
