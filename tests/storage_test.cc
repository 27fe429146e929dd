// Parameterized conformance tests: every storage engine must behave exactly
// like the in-memory oracle for scans and point reads, and must account IO.
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>

#include <gtest/gtest.h>

#include <fstream>

#include "gen/synthetic.h"
#include "storage/file_store.h"
#include "storage/lsm_store.h"
#include "storage/store.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeDataset;
using ::k2::testing::ScratchDir;

class StoreConformanceTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  std::unique_ptr<Store> Make(const std::string& tag) {
    auto result = CreateStore(
        GetParam(), ScratchDir(std::string("store_") + tag + "_" +
                               StoreKindName(GetParam())));
    K2_CHECK(result.ok());
    return result.MoveValue();
  }
};

TEST_P(StoreConformanceTest, NameMatchesKind) {
  auto store = Make("name");
  EXPECT_EQ(store->name(), StoreKindName(GetParam()));
}

TEST_P(StoreConformanceTest, EmptyStoreBehaviour) {
  auto store = Make("empty");
  ASSERT_TRUE(store->BulkLoad(DatasetBuilder().Build()).ok());
  EXPECT_EQ(store->num_points(), 0u);
  EXPECT_TRUE(store->time_range().empty());
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store->ScanTimestamp(0, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(store->GetPoints(0, ObjectSet::Of({1, 2}), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(StoreConformanceTest, ScanReturnsSnapshotInOidOrder) {
  auto store = Make("scan");
  const Dataset ds =
      MakeDataset({{0, 3, 3, 0}, {0, 1, 1, 0}, {1, 2, 2, 0}, {3, 1, 9, 9}});
  ASSERT_TRUE(store->BulkLoad(ds).ok());
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store->ScanTimestamp(0, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].oid, 1u);
  EXPECT_EQ(out[1].oid, 3u);
  EXPECT_DOUBLE_EQ(out[1].x, 3.0);
  // Missing tick scans come back empty but OK.
  ASSERT_TRUE(store->ScanTimestamp(2, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(StoreConformanceTest, GetPointsSkipsAbsentObjects) {
  auto store = Make("get");
  const Dataset ds = MakeDataset({{0, 1, 1, 0}, {0, 5, 5, 0}, {1, 5, 6, 0}});
  ASSERT_TRUE(store->BulkLoad(ds).ok());
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store->GetPoints(0, ObjectSet::Of({1, 2, 5, 9}), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].oid, 1u);
  EXPECT_EQ(out[1].oid, 5u);
  EXPECT_DOUBLE_EQ(out[1].x, 5.0);
}

TEST_P(StoreConformanceTest, MatchesMemoryOracleOnRandomData) {
  RandomWalkSpec spec;
  spec.num_objects = 25;
  spec.num_ticks = 40;
  spec.seed = 77;
  const Dataset ds = GenerateRandomWalk(spec);
  auto store = Make("oracle");
  ASSERT_TRUE(store->BulkLoad(ds).ok());
  auto oracle = ::k2::testing::MakeMemStore(ds);

  EXPECT_EQ(store->num_points(), oracle->num_points());
  EXPECT_EQ(store->time_range(), oracle->time_range());
  EXPECT_EQ(store->timestamps(), oracle->timestamps());

  std::vector<SnapshotPoint> got, want;
  for (Timestamp t = -1; t <= 41; ++t) {
    ASSERT_TRUE(store->ScanTimestamp(t, &got).ok());
    ASSERT_TRUE(oracle->ScanTimestamp(t, &want).ok());
    ASSERT_EQ(got.size(), want.size()) << "tick " << t;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].oid, want[i].oid);
      EXPECT_DOUBLE_EQ(got[i].x, want[i].x);
      EXPECT_DOUBLE_EQ(got[i].y, want[i].y);
    }
    const ObjectSet probe = ObjectSet::Of({0, 3, 7, 11, 24, 99});
    ASSERT_TRUE(store->GetPoints(t, probe, &got).ok());
    ASSERT_TRUE(oracle->GetPoints(t, probe, &want).ok());
    ASSERT_EQ(got.size(), want.size()) << "tick " << t;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].oid, want[i].oid);
      EXPECT_DOUBLE_EQ(got[i].x, want[i].x);
    }
  }
}

TEST_P(StoreConformanceTest, IoStatsAdvanceOnQueries) {
  auto store = Make("stats");
  const Dataset ds = MakeDataset({{0, 1, 1, 0}, {0, 2, 2, 0}});
  ASSERT_TRUE(store->BulkLoad(ds).ok());
  store->io_stats().Clear();
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store->ScanTimestamp(0, &out).ok());
  EXPECT_EQ(store->io_stats().snapshot_scans, 1u);
  EXPECT_EQ(store->io_stats().scanned_points, 2u);
  ASSERT_TRUE(store->GetPoints(0, ObjectSet::Of({1}), &out).ok());
  EXPECT_EQ(store->io_stats().point_queries, 1u);
  EXPECT_EQ(store->io_stats().point_hits, 1u);
}

// Per-tier read fan-out accounting: the vector algebra must tolerate stats
// of different tier depths (a shallow store vs one that compacted deeper).
TEST(IoStatsTierTest, DeltaAndAccumulateHandleDifferentDepths) {
  IoStats shallow;  // never read past tier 0
  shallow.sstables_touched = 3;
  shallow.tier_sstables_touched = {3};
  IoStats deep;  // reads reached tier 1
  deep.sstables_touched = 8;
  deep.tier_sstables_touched = {5, 3};
  deep.tier_bloom_skipped = {0, 2};

  const IoStats d = IoStats::Delta(deep, shallow);
  ASSERT_EQ(d.tier_sstables_touched.size(), 2u);
  EXPECT_EQ(d.tier_sstables_touched[0], 2u);
  EXPECT_EQ(d.tier_sstables_touched[1], 3u);
  ASSERT_EQ(d.tier_bloom_skipped.size(), 2u);
  EXPECT_EQ(d.tier_bloom_skipped[0], 0u);
  EXPECT_EQ(d.tier_bloom_skipped[1], 2u);

  IoStats total = shallow;
  total.Accumulate(deep);
  EXPECT_EQ(total.sstables_touched, 11u);
  ASSERT_EQ(total.tier_sstables_touched.size(), 2u);
  EXPECT_EQ(total.tier_sstables_touched[0], 8u);
  EXPECT_EQ(total.tier_sstables_touched[1], 3u);
}

// End-to-end on a real multi-tier LSM store: the per-tier split must tie
// out exactly with the flat sstables_touched / bloom_negative counters.
TEST(IoStatsTierTest, LsmReadFanOutSplitsByTier) {
  LsmStore::Options options;
  options.memtable_limit = 64;
  options.tier_fanout = 2;
  LsmStore store(ScratchDir("lsm_tier_stats"), options);
  for (Timestamp t = 0; t < 100; ++t) {
    for (ObjectId o = 0; o < 8; ++o) ASSERT_TRUE(store.Put(t, o, t, o).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_GT(store.num_tiers(), 1u);  // compaction must have promoted tables
  ASSERT_GT(store.compactions_run(), 0u);

  store.io_stats().Clear();
  std::vector<SnapshotPoint> out;
  for (Timestamp t = 0; t < 100; t += 7) {
    ASSERT_TRUE(store.GetPoints(t, ObjectSet::Of({0, 5, 7}), &out).ok());
    // Absent oids exercise the bloom-skip path against every table probed.
    ASSERT_TRUE(store.GetPoints(t, ObjectSet::Of({1000, 2000}), &out).ok());
  }
  const IoStats& stats = store.io_stats();
  EXPECT_GT(stats.sstables_touched, 0u);
  EXPECT_LE(stats.tier_sstables_touched.size(), store.num_tiers());
  EXPECT_EQ(std::accumulate(stats.tier_sstables_touched.begin(),
                            stats.tier_sstables_touched.end(), uint64_t{0}),
            stats.sstables_touched);
  EXPECT_EQ(std::accumulate(stats.tier_bloom_skipped.begin(),
                            stats.tier_bloom_skipped.end(), uint64_t{0}),
            stats.bloom_negative);
}

TEST_P(StoreConformanceTest, BulkLoadReplacesContent) {
  auto store = Make("reload");
  ASSERT_TRUE(store->BulkLoad(MakeDataset({{0, 1, 1, 1}})).ok());
  ASSERT_TRUE(store->BulkLoad(MakeDataset({{5, 9, 2, 2}})).ok());
  EXPECT_EQ(store->num_points(), 1u);
  EXPECT_EQ(store->time_range(), (TimeRange{5, 5}));
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store->ScanTimestamp(0, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(store->ScanTimestamp(5, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].oid, 9u);
}

TEST_P(StoreConformanceTest, NegativeTimestamps) {
  auto store = Make("negative");
  const Dataset ds = MakeDataset({{-10, 1, 1, 0}, {-9, 1, 2, 0}, {0, 1, 3, 0}});
  ASSERT_TRUE(store->BulkLoad(ds).ok());
  EXPECT_EQ(store->time_range(), (TimeRange{-10, 0}));
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store->ScanTimestamp(-9, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].x, 2.0);
  ASSERT_TRUE(store->GetPoints(-10, ObjectSet::Of({1}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].x, 1.0);
}

TEST_P(StoreConformanceTest, BulkLoadResetsIoStats) {
  // Loading may flush/compact (LSM) or write pages; none of that may leak
  // into the first mining run's counters (Table 5 pruning numbers).
  auto store = Make("loadstats");
  RandomWalkSpec spec;
  spec.num_objects = 20;
  spec.num_ticks = 30;
  spec.seed = 5;
  ASSERT_TRUE(store->BulkLoad(GenerateRandomWalk(spec)).ok());
  const IoStats& stats = store->io_stats();
  EXPECT_EQ(stats.points_read(), 0u);
  EXPECT_EQ(stats.snapshot_scans, 0u);
  EXPECT_EQ(stats.point_queries, 0u);
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(stats.seeks, 0u);
  EXPECT_EQ(stats.pages_read, 0u);
  EXPECT_EQ(stats.pages_cached, 0u);

  // Reloading after queries resets again.
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store->ScanTimestamp(0, &out).ok());
  EXPECT_GT(store->io_stats().snapshot_scans, 0u);
  ASSERT_TRUE(store->BulkLoad(GenerateRandomWalk(spec)).ok());
  EXPECT_EQ(store->io_stats().snapshot_scans, 0u);
  EXPECT_EQ(store->io_stats().points_read(), 0u);
}

TEST_P(StoreConformanceTest, AppendedStoreMatchesBulkLoadedStore) {
  RandomWalkSpec spec;
  spec.num_objects = 18;
  spec.num_ticks = 25;
  spec.seed = 11;
  const Dataset ds = GenerateRandomWalk(spec);

  auto bulk = Make("append_bulk");
  ASSERT_TRUE(bulk->BulkLoad(ds).ok());

  auto appended = Make("append_inc");
  for (Timestamp t : ds.timestamps()) {
    ASSERT_TRUE(appended->Append(t, ::k2::SnapshotPoints(ds, t)).ok())
        << "tick " << t;
  }

  EXPECT_EQ(appended->num_points(), bulk->num_points());
  EXPECT_EQ(appended->time_range(), bulk->time_range());
  EXPECT_EQ(appended->timestamps(), bulk->timestamps());
  std::vector<SnapshotPoint> got, want;
  const ObjectSet probe = ObjectSet::Of({0, 2, 5, 9, 17, 40});
  for (Timestamp t = -1; t <= 26; ++t) {
    ASSERT_TRUE(appended->ScanTimestamp(t, &got).ok());
    ASSERT_TRUE(bulk->ScanTimestamp(t, &want).ok());
    EXPECT_EQ(got, want) << "scan tick " << t;
    ASSERT_TRUE(appended->GetPoints(t, probe, &got).ok());
    ASSERT_TRUE(bulk->GetPoints(t, probe, &want).ok());
    EXPECT_EQ(got, want) << "point reads tick " << t;
  }
}

TEST_P(StoreConformanceTest, AppendAfterBulkLoadExtendsTheStore) {
  auto store = Make("append_mixed");
  ASSERT_TRUE(
      store->BulkLoad(MakeDataset({{0, 1, 1, 0}, {1, 1, 2, 0}})).ok());
  ASSERT_TRUE(store->Append(3, {{1, 3.0, 0.0}, {2, 4.0, 0.0}}).ok());
  ASSERT_TRUE(store->Append(4, {{2, 5.0, 0.0}}).ok());
  EXPECT_EQ(store->num_points(), 5u);
  EXPECT_EQ(store->time_range(), (TimeRange{0, 4}));
  EXPECT_EQ(store->timestamps(), (std::vector<Timestamp>{0, 1, 3, 4}));
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store->ScanTimestamp(3, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].oid, 1u);
  EXPECT_DOUBLE_EQ(out[1].x, 4.0);
  ASSERT_TRUE(store->GetPoints(4, ObjectSet::Of({1, 2}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].oid, 2u);
  // The bulk-loaded half still reads fine.
  ASSERT_TRUE(store->ScanTimestamp(1, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].x, 2.0);
}

TEST_P(StoreConformanceTest, AppendValidatesItsPreconditions) {
  auto store = Make("append_bad");
  ASSERT_TRUE(store->Append(5, {{1, 1.0, 0.0}}).ok());
  // Not past the stored range.
  EXPECT_EQ(store->Append(5, {{2, 1.0, 0.0}}).code(), StatusCode::kInvalid);
  EXPECT_EQ(store->Append(4, {{2, 1.0, 0.0}}).code(), StatusCode::kInvalid);
  // Unsorted / duplicate oids.
  EXPECT_EQ(store->Append(6, {{3, 1.0, 0.0}, {2, 1.0, 0.0}}).code(),
            StatusCode::kInvalid);
  EXPECT_EQ(store->Append(6, {{2, 1.0, 0.0}, {2, 2.0, 0.0}}).code(),
            StatusCode::kInvalid);
  // Non-finite coordinates.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(store->Append(6, {{2, inf, 0.0}}).code(), StatusCode::kInvalid);
  EXPECT_EQ(store->Append(6, {{2, 1.0, std::nan("")}}).code(),
            StatusCode::kInvalid);
  EXPECT_EQ(store->Append(6, {{2, 1.0, 0.0}, {3, -inf, 0.0}}).code(),
            StatusCode::kInvalid);
  // Empty appends are no-ops.
  ASSERT_TRUE(store->Append(7, {}).ok());
  EXPECT_EQ(store->num_points(), 1u);
  EXPECT_EQ(store->time_range(), (TimeRange{5, 5}));
}

TEST_P(StoreConformanceTest, ReadSnapshotMatchesParent) {
  RandomWalkSpec spec;
  spec.num_objects = 20;
  spec.num_ticks = 30;
  spec.seed = 11;
  const Dataset ds = GenerateRandomWalk(spec);
  auto store = Make("snapshot");
  ASSERT_TRUE(store->BulkLoad(ds).ok());

  auto snapshot_result = store->CreateReadSnapshot();
  ASSERT_TRUE(snapshot_result.ok()) << snapshot_result.status().ToString();
  std::unique_ptr<Store> snapshot = snapshot_result.MoveValue();

  EXPECT_EQ(snapshot->name(), store->name());
  EXPECT_EQ(snapshot->num_points(), store->num_points());
  EXPECT_EQ(snapshot->time_range(), store->time_range());
  EXPECT_EQ(snapshot->timestamps(), store->timestamps());

  std::vector<SnapshotPoint> got, want;
  for (Timestamp t = -1; t <= 31; ++t) {
    ASSERT_TRUE(snapshot->ScanTimestamp(t, &got).ok());
    ASSERT_TRUE(store->ScanTimestamp(t, &want).ok());
    EXPECT_EQ(got, want) << "tick " << t;
    const ObjectSet probe = ObjectSet::Of({0, 2, 5, 13, 19, 77});
    ASSERT_TRUE(snapshot->GetPoints(t, probe, &got).ok());
    ASSERT_TRUE(store->GetPoints(t, probe, &want).ok());
    EXPECT_EQ(got, want) << "tick " << t;
  }
}

TEST_P(StoreConformanceTest, ReadSnapshotOfEmptyLoadedStoreReadsEmpty) {
  // A loaded-but-empty parent answers reads with empty results; so must
  // its snapshots (snapshot/parent conformance, not an error).
  auto store = Make("snapshot_empty");
  ASSERT_TRUE(store->BulkLoad(DatasetBuilder().Build()).ok());
  auto snapshot_result = store->CreateReadSnapshot();
  ASSERT_TRUE(snapshot_result.ok()) << snapshot_result.status().ToString();
  std::unique_ptr<Store> snapshot = snapshot_result.MoveValue();
  EXPECT_EQ(snapshot->num_points(), 0u);
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(snapshot->ScanTimestamp(0, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(snapshot->GetPoints(0, ObjectSet::Of({1, 2}), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(StoreConformanceTest, ReadSnapshotSeesAppendedDelta) {
  // Snapshots must cover data that arrived through Append (memtable / delta
  // contents), not just the bulk-loaded base.
  auto store = Make("snapshot_delta");
  ASSERT_TRUE(
      store->BulkLoad(MakeDataset({{0, 1, 1, 0}, {1, 1, 2, 0}})).ok());
  ASSERT_TRUE(store->Append(2, {{1, 3.0, 0.0}, {4, 7.0, 7.0}}).ok());

  auto snapshot_result = store->CreateReadSnapshot();
  ASSERT_TRUE(snapshot_result.ok()) << snapshot_result.status().ToString();
  std::unique_ptr<Store> snapshot = snapshot_result.MoveValue();

  EXPECT_EQ(snapshot->num_points(), 4u);
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(snapshot->ScanTimestamp(2, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].oid, 1u);
  EXPECT_DOUBLE_EQ(out[0].x, 3.0);
  EXPECT_EQ(out[1].oid, 4u);
  ASSERT_TRUE(snapshot->GetPoints(2, ObjectSet::Of({4}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].y, 7.0);
}

TEST_P(StoreConformanceTest, ReadSnapshotIsReadOnlyAndIsolatesIo) {
  auto store = Make("snapshot_ro");
  const Dataset ds = MakeDataset({{0, 1, 1, 0}, {0, 2, 2, 0}, {1, 1, 3, 0}});
  ASSERT_TRUE(store->BulkLoad(ds).ok());

  auto snapshot_result = store->CreateReadSnapshot();
  ASSERT_TRUE(snapshot_result.ok());
  std::unique_ptr<Store> snapshot = snapshot_result.MoveValue();

  EXPECT_FALSE(snapshot->BulkLoad(ds).ok());
  EXPECT_FALSE(snapshot->Append(9, {{1, 0.0, 0.0}}).ok());

  // Native snapshots charge their own io_stats(); the parent's counters
  // must not move for snapshot reads.
  const IoStats parent_before = store->io_stats();
  const IoStats snap_before = snapshot->io_stats();
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(snapshot->ScanTimestamp(0, &out).ok());
  ASSERT_TRUE(snapshot->GetPoints(1, ObjectSet::Of({1}), &out).ok());
  const IoStats parent_delta =
      IoStats::Delta(store->io_stats(), parent_before);
  const IoStats snap_delta =
      IoStats::Delta(snapshot->io_stats(), snap_before);
  EXPECT_EQ(parent_delta.points_read() + parent_delta.snapshot_scans, 0u);
  EXPECT_EQ(snap_delta.snapshot_scans, 1u);
  EXPECT_EQ(snap_delta.point_queries, 1u);
}

TEST_P(StoreConformanceTest, ConcurrentSnapshotsReadConsistently) {
  // Each snapshot is single-threaded, but distinct snapshots must be able
  // to read concurrently without external locks (the access pattern of
  // MineK2Hop's per-slot snapshots). Run under TSan in CI.
  RandomWalkSpec spec;
  spec.num_objects = 12;
  spec.num_ticks = 20;
  spec.seed = 23;
  const Dataset ds = GenerateRandomWalk(spec);
  auto store = Make("snapshot_conc");
  ASSERT_TRUE(store->BulkLoad(ds).ok());

  constexpr int kReaders = 4;
  std::vector<std::unique_ptr<Store>> snapshots;
  for (int i = 0; i < kReaders; ++i) {
    auto result = store->CreateReadSnapshot();
    ASSERT_TRUE(result.ok());
    snapshots.push_back(result.MoveValue());
  }
  std::vector<uint64_t> rows_seen(kReaders, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      std::vector<SnapshotPoint> out;
      for (int round = 0; round < 3; ++round) {
        for (Timestamp t = 0; t < 20; ++t) {
          if (!snapshots[i]->ScanTimestamp(t, &out).ok()) return;
          rows_seen[i] += out.size();
          if (!snapshots[i]
                   ->GetPoints(t, ObjectSet::Of({0, 3, 7}), &out)
                   .ok()) {
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kReaders; ++i) {
    EXPECT_EQ(rows_seen[i], 3 * ds.num_points()) << "reader " << i;
  }
}

TEST(StoreTest, CreateReadSnapshotWithoutAnEngineSnapshotIsInvalid) {
  // Concurrent readers need a handle each; an engine that cannot make one
  // says so instead of handing out a shared, lock-serialized view.
  class NoSnapshotStore final : public Store {
   public:
    std::string name() const override { return "bare"; }
    Status BulkLoad(const Dataset&) override { return Status::OK(); }
    Status ScanTimestamp(Timestamp, std::vector<SnapshotPoint>*) override {
      return Status::OK();
    }
    Status GetPoints(Timestamp, const ObjectSet&,
                     std::vector<SnapshotPoint>*) override {
      return Status::OK();
    }
    TimeRange time_range() const override { return {0, -1}; }
    const std::vector<Timestamp>& timestamps() const override {
      return timestamps_;
    }
    uint64_t num_points() const override { return 0; }

   private:
    std::vector<Timestamp> timestamps_;
  };
  NoSnapshotStore store;
  auto snapshot = store.CreateReadSnapshot();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kInvalid);
  EXPECT_NE(snapshot.status().message().find("bare"), std::string::npos);
}

TEST(FileStoreTest, FirstAppendTruncatesAStaleFile) {
  // A leftover data file from a crashed earlier run must not shift the
  // extent directory off its physical offsets.
  const std::string path = ScratchDir("file_stale") + "/data.bin";
  {
    std::ofstream stale(path, std::ios::binary);
    stale << "stale bytes from a previous run";
  }
  FileStore store(path);
  ASSERT_TRUE(store.Append(0, {{7, 1.5, 2.5}}).ok());
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store.ScanTimestamp(0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].oid, 7u);
  EXPECT_DOUBLE_EQ(out[0].x, 1.5);
  EXPECT_EQ(store.file_size_bytes(), sizeof(PointRecord));
}

INSTANTIATE_TEST_SUITE_P(AllEngines, StoreConformanceTest,
                         ::testing::Values(StoreKind::kMemory, StoreKind::kFile,
                                           StoreKind::kBPlusTree,
                                           StoreKind::kLsm),
                         [](const ::testing::TestParamInfo<StoreKind>& info) {
                           return StoreKindName(info.param);
                         });

}  // namespace
}  // namespace k2
