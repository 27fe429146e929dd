// Unit tests for the Dataset model: builder normalization, snapshot slices,
// point lookup, restriction.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/dataset.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeDataset;

TEST(DatasetBuilderTest, SortsByTimeThenOid) {
  const Dataset ds = MakeDataset({{2, 1, 0, 0}, {1, 2, 0, 0}, {1, 1, 0, 0}});
  ASSERT_EQ(ds.num_points(), 3u);
  EXPECT_EQ(ds.records()[0].t, 1);
  EXPECT_EQ(ds.records()[0].oid, 1u);
  EXPECT_EQ(ds.records()[1].oid, 2u);
  EXPECT_EQ(ds.records()[2].t, 2);
}

TEST(DatasetBuilderTest, DropsDuplicateKeysKeepingFirst) {
  DatasetBuilder builder;
  builder.Add(1, 1, 10.0, 0.0);
  builder.Add(1, 1, 99.0, 0.0);
  const Dataset ds = builder.Build();
  ASSERT_EQ(ds.num_points(), 1u);
  EXPECT_DOUBLE_EQ(ds.records()[0].x, 10.0);
}

TEST(DatasetBuilderTest, BuilderIsReusableAfterBuild) {
  DatasetBuilder builder;
  builder.Add(0, 0, 0, 0);
  const Dataset first = builder.Build();
  EXPECT_EQ(first.num_points(), 1u);
  builder.Add(5, 5, 0, 0);
  const Dataset second = builder.Build();
  EXPECT_EQ(second.num_points(), 1u);
  EXPECT_EQ(second.records()[0].t, 5);
}

TEST(DatasetTest, EmptyDataset) {
  const Dataset ds = DatasetBuilder().Build();
  EXPECT_TRUE(ds.empty());
  EXPECT_EQ(ds.num_objects(), 0u);
  EXPECT_TRUE(ds.time_range().empty());
  EXPECT_TRUE(ds.Snapshot(0).empty());
  EXPECT_EQ(ds.Find(0, 0), nullptr);
}

TEST(DatasetTest, SnapshotSlices) {
  const Dataset ds = MakeDataset(
      {{0, 1, 1, 1}, {0, 2, 2, 2}, {2, 1, 3, 3}});  // tick 1 missing
  EXPECT_EQ(ds.Snapshot(0).size(), 2u);
  EXPECT_TRUE(ds.Snapshot(1).empty());
  EXPECT_EQ(ds.Snapshot(2).size(), 1u);
  EXPECT_TRUE(ds.Snapshot(99).empty());
  EXPECT_EQ(ds.timestamps(), (std::vector<Timestamp>{0, 2}));
  EXPECT_EQ(ds.time_range(), (TimeRange{0, 2}));
}

TEST(DatasetTest, NumObjectsCountsDistinctIds) {
  const Dataset ds = MakeDataset({{0, 7, 0, 0}, {1, 7, 0, 0}, {1, 9, 0, 0}});
  EXPECT_EQ(ds.num_objects(), 2u);
}

TEST(DatasetTest, FindLocatesRecords) {
  const Dataset ds = MakeDataset({{0, 1, 1, 2}, {0, 3, 3, 4}, {1, 3, 5, 6}});
  const PointRecord* rec = ds.Find(0, 3);
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->x, 3.0);
  EXPECT_EQ(ds.Find(0, 2), nullptr);
  EXPECT_EQ(ds.Find(5, 3), nullptr);
}

// SelectObjects must return exactly what a per-oid Dataset::Find returns,
// in oid order, however sparse or dense the requested set is.
std::vector<SnapshotPoint> FindEach(const Dataset& ds, Timestamp t,
                                    const ObjectSet& objects) {
  std::vector<SnapshotPoint> out;
  for (ObjectId oid : objects) {
    if (const PointRecord* rec = ds.Find(t, oid)) {
      out.push_back(SnapshotPoint{oid, rec->x, rec->y});
    }
  }
  return out;
}

void ExpectSelectMatchesFind(const Dataset& ds, Timestamp t,
                             const ObjectSet& objects) {
  const std::vector<SnapshotPoint> want = FindEach(ds, t, objects);
  std::vector<SnapshotPoint> got = {{999, 0, 0}};  // appended to, not cleared
  EXPECT_EQ(SelectObjects(ds.Snapshot(t), objects, &got), want.size());
  ASSERT_EQ(got.size(), want.size() + 1);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i + 1].oid, want[i].oid);
    EXPECT_EQ(got[i + 1].x, want[i].x);
    EXPECT_EQ(got[i + 1].y, want[i].y);
  }
}

TEST(SelectObjectsTest, EdgeCasesMatchFind) {
  // Tick 0 holds oids 2, 4, ..., 40; tick 1 holds a single record.
  DatasetBuilder builder;
  for (ObjectId oid = 2; oid <= 40; oid += 2) builder.Add(0, oid, oid, -1.0);
  builder.Add(1, 7, 3.5, 4.5);
  const Dataset ds = builder.Build();

  ExpectSelectMatchesFind(ds, 0, ObjectSet());                   // empty set
  ExpectSelectMatchesFind(ds, 0, ObjectSet::Of({2, 40}));        // first, last
  ExpectSelectMatchesFind(ds, 0, ObjectSet::Of({1, 3, 5, 41}));  // all absent
  ExpectSelectMatchesFind(ds, 0, ObjectSet::Of({38, 40, 41, 99}));  // past end
  ExpectSelectMatchesFind(ds, 0, ObjectSet::Of({0, 2, 3, 40, 1000}));
  ExpectSelectMatchesFind(ds, 1, ObjectSet::Of({7}));            // one record
  ExpectSelectMatchesFind(ds, 1, ObjectSet::Of({1, 7, 8}));
  ExpectSelectMatchesFind(ds, 1, ObjectSet::Of({8}));
  ExpectSelectMatchesFind(ds, 5, ObjectSet::Of({2, 4}));         // no tick
}

TEST(SelectObjectsTest, RandomSetsMatchFind) {
  Rng rng(1234);
  DatasetBuilder builder;
  for (ObjectId oid = 0; oid < 600; ++oid) {
    if (rng.NextInt(3) != 0) builder.Add(0, oid, rng.NextDouble(), oid);
  }
  const Dataset ds = builder.Build();
  // From a handful of oids (long gallops) to nearly all of them (dense).
  for (uint64_t per_mille : {2u, 20u, 200u, 900u, 1000u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<ObjectId> oids;
      for (ObjectId oid = 0; oid < 650; ++oid) {
        if (rng.NextInt(1000) < per_mille) oids.push_back(oid);
      }
      ExpectSelectMatchesFind(ds, 0, ObjectSet(oids));
    }
  }
}

TEST(DatasetTest, RestrictFiltersObjectsAndTime) {
  const Dataset ds = MakeDataset({{0, 1, 0, 0},
                                  {0, 2, 0, 0},
                                  {1, 1, 0, 0},
                                  {1, 2, 0, 0},
                                  {2, 1, 0, 0}});
  const Dataset sub = ds.Restrict({1}, TimeRange{1, 2});
  EXPECT_EQ(sub.num_points(), 2u);
  EXPECT_EQ(sub.num_objects(), 1u);
  EXPECT_EQ(sub.time_range(), (TimeRange{1, 2}));
}

TEST(DatasetTest, NegativeTimestampsSupported) {
  const Dataset ds = MakeDataset({{-5, 1, 0, 0}, {-3, 1, 0, 0}});
  EXPECT_EQ(ds.time_range(), (TimeRange{-5, -3}));
  EXPECT_EQ(ds.Snapshot(-5).size(), 1u);
}

TEST(DatasetTest, DebugStringMentionsShape) {
  const Dataset ds = MakeDataset({{0, 1, 0, 0}});
  const std::string s = ds.DebugString();
  EXPECT_NE(s.find("points=1"), std::string::npos);
  EXPECT_NE(s.find("objects=1"), std::string::npos);
}

}  // namespace
}  // namespace k2
