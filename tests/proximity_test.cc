// Unit tests for the proximity-log model, its generator, and its IO:
// canonicalization, per-tick CSR adjacency views, presence-dataset bridging,
// deterministic planted-clique generation, and CSV round-trips with named
// parse errors.
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/proximity_gen.h"
#include "io/proximity_io.h"
#include "model/proximity.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::ScratchDir;

TEST(ProximityLogTest, CanonicalizesSwapsSelfLoopsAndDuplicates) {
  const ProximityLog log = ProximityLog::FromRecords({
      {0, 2, 1},   // swapped -> (1,2)
      {0, 1, 2},   // duplicate of the above
      {0, 3, 3},   // self-loop: dropped
      {1, 5, 4},   // swapped -> (4,5)
  });
  EXPECT_EQ(log.num_pairs(), 2u);
  EXPECT_EQ(log.num_objects(), 4u);
  EXPECT_EQ(log.time_range(), (TimeRange{0, 1}));
  const std::vector<PairRecord> expected = {{0, 1, 2}, {1, 4, 5}};
  EXPECT_EQ(log.ToRecords(), expected);
}

TEST(ProximityLogTest, EdgesAtYieldsSortedSymmetricRows) {
  const ProximityLog log = ProximityLog::FromRecords(
      {{3, 10, 20}, {3, 10, 30}, {3, 20, 30}, {7, 10, 40}});
  const SnapshotEdges t3 = log.EdgesAt(3);
  ASSERT_EQ(t3.num_nodes(), 3u);
  EXPECT_EQ(t3.num_edges(), 3u);
  EXPECT_EQ(t3.nodes[0], 10u);
  EXPECT_EQ(t3.nodes[1], 20u);
  EXPECT_EQ(t3.nodes[2], 30u);
  const auto row0 = t3.Row(0);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_EQ(row0[0], 20u);
  EXPECT_EQ(row0[1], 30u);
  EXPECT_EQ(t3.IndexOf(30), 2u);
  EXPECT_EQ(t3.IndexOf(99), SnapshotEdges::npos);

  const SnapshotEdges t7 = log.EdgesAt(7);
  ASSERT_EQ(t7.num_nodes(), 2u);
  EXPECT_EQ(t7.Row(0).size(), 1u);
  EXPECT_EQ(t7.Row(0)[0], 40u);

  EXPECT_TRUE(log.EdgesAt(5).empty());
  EXPECT_TRUE(ProximityLog().EdgesAt(0).empty());
}

TEST(ProximityLogTest, PresenceDatasetListsIncidentObjectsWithZeroCoords) {
  const ProximityLog log =
      ProximityLog::FromRecords({{0, 1, 2}, {0, 2, 3}, {2, 7, 9}});
  const Dataset presence = log.PresenceDataset();
  EXPECT_EQ(presence.num_points(), 5u);  // {1,2,3}@0 + {7,9}@2
  EXPECT_EQ(presence.time_range(), (TimeRange{0, 2}));
  const auto snap0 = presence.Snapshot(0);
  ASSERT_EQ(snap0.size(), 3u);
  EXPECT_EQ(snap0[0].oid, 1u);
  EXPECT_EQ(snap0[2].oid, 3u);
  EXPECT_EQ(snap0[0].x, 0.0);
  EXPECT_EQ(snap0[0].y, 0.0);
  EXPECT_TRUE(presence.Snapshot(1).empty());
}

TEST(ProximityGenTest, IsDeterministicPerSeed) {
  PlantedProximitySpec spec;
  spec.num_noise_objects = 12;
  spec.num_ticks = 15;
  spec.noise_pair_prob = 0.05;
  spec.groups = {{3, 2, 9}};
  spec.seed = 42;
  const ProximityLog a = GeneratePlantedProximity(spec);
  const ProximityLog b = GeneratePlantedProximity(spec);
  EXPECT_EQ(a.ToRecords(), b.ToRecords());
  spec.seed = 43;
  EXPECT_NE(GeneratePlantedProximity(spec).ToRecords(), a.ToRecords());
}

TEST(ProximityGenTest, PlantsCliquesDuringTheirIntervals) {
  PlantedProximitySpec spec;
  spec.num_noise_objects = 5;
  spec.num_ticks = 12;
  spec.noise_pair_prob = 0.0;
  spec.groups = {{4, 3, 8}, {3, 0, 11}};  // ids 0..3 and 4..6
  const ProximityLog log = GeneratePlantedProximity(spec);
  for (Timestamp t = 0; t < spec.num_ticks; ++t) {
    const SnapshotEdges edges = log.EdgesAt(t);
    // Group 1 (ids 4..6) is a triangle every tick.
    const size_t idx4 = edges.IndexOf(4);
    ASSERT_NE(idx4, SnapshotEdges::npos) << "tick " << t;
    EXPECT_EQ(edges.Row(idx4).size(), 2u);
    // Group 0 (ids 0..3) is a K4 only during [3, 8].
    const size_t idx0 = edges.IndexOf(0);
    if (t >= 3 && t <= 8) {
      ASSERT_NE(idx0, SnapshotEdges::npos) << "tick " << t;
      EXPECT_EQ(edges.Row(idx0).size(), 3u) << "tick " << t;
    } else {
      EXPECT_EQ(idx0, SnapshotEdges::npos) << "tick " << t;
    }
  }
}

TEST(ProximityIoTest, CsvRoundTrip) {
  const std::string dir = ScratchDir("proximity_csv");
  PlantedProximitySpec spec;
  spec.num_noise_objects = 10;
  spec.num_ticks = 8;
  spec.noise_pair_prob = 0.1;
  spec.groups = {{3, 1, 6}};
  const ProximityLog log = GeneratePlantedProximity(spec);

  const std::string path = dir + "/pairs.csv";
  ASSERT_TRUE(WriteProximityCsv(log, path).ok());
  auto loaded = ReadProximityCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().ToRecords(), log.ToRecords());
}

TEST(ProximityIoTest, CsvNamesRowAndColumnOnParseError) {
  const std::string dir = ScratchDir("proximity_bad");
  const std::string path = dir + "/bad.csv";
  {
    std::ofstream out(path);
    out << "t,oid_a,oid_b\n1,2,3\n2,junk,4\n";
  }
  auto r = ReadProximityCsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalid);
  EXPECT_NE(r.status().message().find(":3"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("oid_a"), std::string::npos)
      << r.status().message();
}

TEST(ProximityIoTest, CsvRejectsSelfLoopsAndBadHeaders) {
  const std::string dir = ScratchDir("proximity_bad2");
  const std::string self_loop = dir + "/self.csv";
  {
    std::ofstream out(self_loop);
    out << "t,oid_a,oid_b\n1,5,5\n";
  }
  auto r = ReadProximityCsv(self_loop);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("self-loop"), std::string::npos);

  const std::string bad_header = dir + "/head.csv";
  {
    std::ofstream out(bad_header);
    out << "t,x,y\n1,2,3\n";
  }
  EXPECT_FALSE(ReadProximityCsv(bad_header).ok());
}

}  // namespace
}  // namespace k2
