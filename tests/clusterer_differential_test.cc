// Differential proof obligations of the pluggable clustering substrate:
//
//  1. The geometric clusterer THROUGH the SnapshotClusterer seam is
//     byte-identical to the default MineK2Hop path on every fixture.
//  2. The graph core fed a snapshot's materialized eps-graph reproduces
//     DBSCAN's clusters exactly — per snapshot (EpsGraphClusterer and
//     CoLocationGraphClusterer over eps-pairs) and through whole mining
//     runs (MineK2Hop with the epsgraph clusterer).
//  3. The coordinate-free end-to-end scenario: all three miners (batch,
//     online, partitioned) over a presence store + co-location clusterer
//     produce byte-identical convoys, and recover planted cliques exactly.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/clusterer.h"
#include "cluster/dbscan.h"
#include "cluster/graph_clusterer.h"
#include "cluster/store_clustering.h"
#include "core/k2hop.h"
#include "core/online.h"
#include "gen/proximity_gen.h"
#include "gen/synthetic.h"
#include "model/proximity.h"
#include "storage/lsm_store.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeMemStore;
using ::k2::testing::ScratchDir;
using ::k2::testing::Str;

// ---------------------------------------------------------------------------
// Geometric fixtures (random walks)
// ---------------------------------------------------------------------------

struct GeoCase {
  uint64_t seed;
  int num_objects;
  int num_ticks;
  double area;
  int m;
  int k;
  double eps;
};

std::string GeoCaseName(const ::testing::TestParamInfo<GeoCase>& info) {
  const GeoCase& c = info.param;
  return "seed" + std::to_string(c.seed) + "_n" +
         std::to_string(c.num_objects) + "_t" + std::to_string(c.num_ticks) +
         "_m" + std::to_string(c.m) + "_k" + std::to_string(c.k);
}

class ClustererGeoDifferentialTest : public ::testing::TestWithParam<GeoCase> {
 protected:
  Dataset MakeData() const {
    const GeoCase& c = GetParam();
    RandomWalkSpec spec;
    spec.seed = c.seed;
    spec.num_objects = c.num_objects;
    spec.num_ticks = c.num_ticks;
    spec.area = c.area;
    spec.step = c.area / 8.0;
    return GenerateRandomWalk(spec);
  }
  MiningParams Params() const {
    const GeoCase& c = GetParam();
    return MiningParams{c.m, c.k, c.eps};
  }
};

TEST_P(ClustererGeoDifferentialTest, SeamRoutedMinersMatchDefault) {
  const Dataset data = MakeData();
  auto store = MakeMemStore(data);
  const MiningParams params = Params();
  auto expected = MineK2Hop(store.get(), params);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  const GeometricClusterer geometric;
  MiningParams via_geometric = params;
  via_geometric.clusterer = &geometric;
  auto geo = MineK2Hop(store.get(), via_geometric);
  ASSERT_TRUE(geo.ok()) << geo.status().ToString();
  EXPECT_EQ(geo.value(), expected.value()) << "geometric-through-seam\n"
                                           << Str(geo.value());

  const EpsGraphClusterer epsgraph;
  MiningParams via_graph = params;
  via_graph.clusterer = &epsgraph;
  auto graph = MineK2Hop(store.get(), via_graph);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value(), expected.value())
      << "epsgraph:\n"
      << Str(graph.value()) << "expected:\n"
      << Str(expected.value());
}

TEST_P(ClustererGeoDifferentialTest, PerSnapshotThreeWayAgreement) {
  const Dataset data = MakeData();
  const MiningParams params = Params();

  // Materialize eps-pairs per tick; the co-location clusterer over them
  // must agree with geometric DBSCAN on every snapshot.
  std::vector<PairRecord> pairs;
  for (Timestamp t : data.timestamps()) {
    const auto snap = data.Snapshot(t);
    for (size_t i = 0; i < snap.size(); ++i) {
      for (size_t j = i + 1; j < snap.size(); ++j) {
        const double dx = snap[i].x - snap[j].x;
        const double dy = snap[i].y - snap[j].y;
        if (dx * dx + dy * dy <= params.eps * params.eps) {
          pairs.push_back(PairRecord{t, snap[i].oid, snap[j].oid});
        }
      }
    }
  }
  const ProximityLog log = ProximityLog::FromRecords(std::move(pairs));
  auto presence_store = MakeMemStore(log.PresenceDataset());
  const CoLocationGraphClusterer colocation(&log);
  MiningParams graph_params = params;
  graph_params.clusterer = &colocation;

  SnapshotScratch scratch;
  for (Timestamp t : data.timestamps()) {
    const std::vector<SnapshotPoint> points = SnapshotPoints(data, t);
    const std::vector<ObjectSet> dbscan =
        Dbscan(points, params.eps, params.m);
    EXPECT_EQ(EpsGraphClusters(points, params.eps, params.m, &scratch),
              dbscan)
        << "epsgraph tick " << t;
    auto via_log = ClusterSnapshot(presence_store.get(), t, graph_params);
    ASSERT_TRUE(via_log.ok());
    EXPECT_EQ(via_log.value(), dbscan) << "colocation tick " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, ClustererGeoDifferentialTest,
    ::testing::Values(GeoCase{1, 30, 24, 60.0, 2, 3, 8.0},
                      GeoCase{2, 40, 30, 50.0, 3, 4, 7.0},
                      GeoCase{3, 60, 20, 40.0, 2, 2, 5.0},
                      GeoCase{4, 25, 40, 80.0, 4, 5, 12.0},
                      GeoCase{5, 80, 16, 45.0, 3, 3, 6.0},
                      GeoCase{6, 50, 50, 70.0, 2, 6, 9.0}),
    GeoCaseName);

// ---------------------------------------------------------------------------
// Coordinate-free end to end (proximity logs)
// ---------------------------------------------------------------------------

struct ProxCase {
  uint64_t seed;
  int num_noise;
  int num_ticks;
  double noise_prob;
  std::vector<PlantedProximityGroup> groups;
  int m;
  int k;
};

std::string ProxCaseName(const ::testing::TestParamInfo<ProxCase>& info) {
  const ProxCase& c = info.param;
  return "seed" + std::to_string(c.seed) + "_noise" +
         std::to_string(c.num_noise) + "_t" + std::to_string(c.num_ticks) +
         "_g" + std::to_string(c.groups.size()) + "_m" + std::to_string(c.m) +
         "_k" + std::to_string(c.k);
}

class ProximityDifferentialTest : public ::testing::TestWithParam<ProxCase> {
 protected:
  ProximityLog MakeLog() const {
    const ProxCase& c = GetParam();
    PlantedProximitySpec spec;
    spec.seed = c.seed;
    spec.num_noise_objects = c.num_noise;
    spec.num_ticks = c.num_ticks;
    spec.noise_pair_prob = c.noise_prob;
    spec.groups = c.groups;
    return GeneratePlantedProximity(spec);
  }
  MiningParams Params(const CoLocationGraphClusterer* clusterer) const {
    const ProxCase& c = GetParam();
    MiningParams params{c.m, c.k, /*eps=*/0.0};
    params.clusterer = clusterer;
    return params;
  }
};

TEST_P(ProximityDifferentialTest, BatchOnlinePartitionedAreByteIdentical) {
  const ProximityLog log = MakeLog();
  const Dataset presence = log.PresenceDataset();
  const CoLocationGraphClusterer colocation(&log);
  const MiningParams params = Params(&colocation);
  const std::string tag = ProxCaseName(
      ::testing::TestParamInfo<ProxCase>(GetParam(), 0));

  // Batch, on both a memory store and the full LSM engine.
  auto mem_store = MakeMemStore(presence);
  auto batch = MineK2Hop(mem_store.get(), params);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  {
    LsmStoreOptions options;
    auto lsm = std::make_unique<LsmStore>(
        ScratchDir("prox_diff_" + tag) + "/lsmt", options);
    ASSERT_TRUE(lsm->init_status().ok());
    ASSERT_TRUE(lsm->BulkLoad(presence).ok());
    auto lsm_batch = MineK2Hop(lsm.get(), params);
    ASSERT_TRUE(lsm_batch.ok()) << lsm_batch.status().ToString();
    EXPECT_EQ(lsm_batch.value(), batch.value()) << "lsmt vs memory";
  }

  // Online: stream presence ticks, finalize.
  {
    MemoryStore stream_store;
    OnlineK2HopMiner miner(&stream_store, params);
    for (Timestamp t : presence.timestamps()) {
      ASSERT_TRUE(miner.AppendTick(t, SnapshotPoints(presence, t)).ok())
          << "tick " << t;
    }
    auto online = miner.Finalize();
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    EXPECT_EQ(online.value(), batch.value())
        << "online:\n"
        << Str(online.value()) << "batch:\n"
        << Str(batch.value());
  }

  // Partitioned, a few shard counts.
  for (const int shards : {2, 3, 5}) {
    K2HopOptions options;
    options.num_shards = shards;
    auto partitioned = MineK2Hop(mem_store.get(), params, options);
    ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();
    EXPECT_EQ(partitioned.value(), batch.value())
        << "partitioned P=" << shards;
  }
}

TEST_P(ProximityDifferentialTest, NoiselessLogsRecoverPlantedTruthExactly) {
  const ProxCase& c = GetParam();
  if (c.noise_prob > 0.0) GTEST_SKIP() << "exact truth needs a noiseless log";
  const ProximityLog log = MakeLog();
  const CoLocationGraphClusterer colocation(&log);
  auto store = MakeMemStore(log.PresenceDataset());
  auto mined = MineK2Hop(store.get(), Params(&colocation));
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();

  std::vector<Convoy> expected;
  ObjectId next_id = 0;
  for (const PlantedProximityGroup& g : c.groups) {
    std::vector<ObjectId> ids;
    for (int i = 0; i < g.size; ++i) ids.push_back(next_id++);
    if (g.size >= c.m && g.end - g.start + 1 >= c.k) {
      expected.emplace_back(ObjectSet(ids), g.start, g.end);
    }
  }
  EXPECT_SAME_CONVOYS(mined.value(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, ProximityDifferentialTest,
    ::testing::Values(
        // Noiseless: exact planted recovery + miner equality.
        ProxCase{1, 10, 30, 0.0, {{3, 4, 20}, {4, 10, 29}}, 3, 4},
        ProxCase{2, 8, 40, 0.0, {{5, 0, 15}, {3, 20, 39}, {4, 5, 34}}, 3, 5},
        ProxCase{3, 0, 25, 0.0, {{2, 0, 24}}, 2, 3},
        // Noisy: adversarial for the miners' pruning; equality only.
        ProxCase{4, 25, 36, 0.03, {{3, 2, 18}, {4, 12, 33}}, 3, 4},
        ProxCase{5, 40, 30, 0.05, {{4, 0, 29}}, 2, 3},
        ProxCase{6, 30, 48, 0.02, {{5, 6, 28}, {3, 30, 47}}, 3, 6}),
    ProxCaseName);

}  // namespace
}  // namespace k2
