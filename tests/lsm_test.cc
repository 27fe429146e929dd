// White-box tests for the LSM engine: skip list, bloom filter, SSTable
// format, flush/compaction lifecycle, newest-wins versioning.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <thread>

#include "gen/synthetic.h"
#include "storage/key.h"
#include "storage/lsm/bloom.h"
#include "storage/lsm/skiplist.h"
#include "storage/lsm/sstable.h"
#include "storage/lsm_store.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::ScratchDir;
using lsm::BloomFilter;
using lsm::LsmValue;
using lsm::SkipList;
using lsm::SSTable;
using lsm::SSTableBuilder;

// ---------------------------------------------------------------------------
// SkipList
// ---------------------------------------------------------------------------

TEST(SkipListTest, PutGet) {
  SkipList list;
  list.Put(5, {1.0, 2.0});
  list.Put(1, {3.0, 4.0});
  LsmValue v;
  EXPECT_TRUE(list.Get(5, &v));
  EXPECT_DOUBLE_EQ(v.x, 1.0);
  EXPECT_TRUE(list.Get(1, &v));
  EXPECT_DOUBLE_EQ(v.y, 4.0);
  EXPECT_FALSE(list.Get(3, &v));
  EXPECT_EQ(list.size(), 2u);
}

TEST(SkipListTest, OverwriteKeepsSize) {
  SkipList list;
  list.Put(7, {1, 1});
  list.Put(7, {2, 2});
  EXPECT_EQ(list.size(), 1u);
  LsmValue v;
  ASSERT_TRUE(list.Get(7, &v));
  EXPECT_DOUBLE_EQ(v.x, 2.0);
}

TEST(SkipListTest, OrderedScan) {
  SkipList list;
  for (uint64_t k : {50, 10, 30, 20, 40}) list.Put(k, {double(k), 0});
  std::vector<uint64_t> keys;
  list.Scan(15, 45, [&](uint64_t k, const LsmValue&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<uint64_t>{20, 30, 40}));
}

TEST(SkipListTest, ManyKeysStaySorted) {
  SkipList list;
  for (uint64_t i = 0; i < 5000; ++i) list.Put((i * 2654435761u) % 100000, {0, 0});
  uint64_t prev = 0;
  bool first = true;
  list.ForEach([&](uint64_t k, const LsmValue&) {
    if (!first) {
      EXPECT_GT(k, prev);
    }
    prev = k;
    first = false;
  });
}

TEST(SkipListTest, ClearEmptiesList) {
  SkipList list;
  list.Put(1, {0, 0});
  list.Clear();
  EXPECT_TRUE(list.empty());
  LsmValue v;
  EXPECT_FALSE(list.Get(1, &v));
}

// ---------------------------------------------------------------------------
// BloomFilter
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  for (uint64_t k = 0; k < 1000; ++k) bloom.Add(k * 7919);
  for (uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(bloom.MayContain(k * 7919));
}

TEST(BloomFilterTest, FalsePositiveRateIsLow) {
  BloomFilter bloom(1000, 10);
  for (uint64_t k = 0; k < 1000; ++k) bloom.Add(k);
  int fp = 0;
  for (uint64_t k = 1000000; k < 1010000; ++k) {
    if (bloom.MayContain(k)) ++fp;
  }
  EXPECT_LT(fp, 500);  // ~1% expected at 10 bits/key; 5% safety bound
}

TEST(BloomFilterTest, SerializationRoundTrip) {
  BloomFilter bloom(100);
  for (uint64_t k = 0; k < 100; ++k) bloom.Add(k * 31);
  // Round-trip through the raw on-disk num_hashes word, whose top bit
  // carries the probe layout.
  BloomFilter copy =
      BloomFilter::FromWords(bloom.words(), bloom.num_hashes_for_disk());
  for (uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(copy.MayContain(k * 31));
}

// ---------------------------------------------------------------------------
// SSTable
// ---------------------------------------------------------------------------

TEST(SSTableTest, BuildOpenGetScan) {
  const std::string dir = ScratchDir("sstable");
  const std::string path = dir + "/t1.sst";
  SSTableBuilder builder(path);
  builder.Reserve(1000);
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(builder.Add(k * 3, {double(k), double(-k)}).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  IoStats stats;
  auto open = SSTable::Open(path, 1, &stats);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  std::unique_ptr<SSTable> table = open.MoveValue();
  EXPECT_EQ(table->num_entries(), 1000u);
  EXPECT_EQ(table->min_key(), 0u);
  EXPECT_EQ(table->max_key(), 2997u);

  LsmValue v;
  auto hit = table->Get(300, &v);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value());
  EXPECT_DOUBLE_EQ(v.x, 100.0);
  auto miss = table->Get(301, &v);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value());

  std::vector<uint64_t> keys;
  ASSERT_TRUE(
      table->Scan(100, 200, [&](uint64_t k, const LsmValue&) { keys.push_back(k); })
          .ok());
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys.front(), 102u);
  EXPECT_EQ(keys.back(), 198u);
}

TEST(SSTableTest, RejectsOutOfOrderKeys) {
  const std::string path = ScratchDir("sstable_order") + "/t.sst";
  SSTableBuilder builder(path);
  ASSERT_TRUE(builder.Add(10, {0, 0}).ok());
  EXPECT_FALSE(builder.Add(10, {0, 0}).ok());
  EXPECT_FALSE(builder.Add(5, {0, 0}).ok());
}

TEST(SSTableTest, BloomShortCircuitsMisses) {
  const std::string path = ScratchDir("sstable_bloom") + "/t.sst";
  SSTableBuilder builder(path);
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(builder.Add(k * 2, {0, 0}).ok());
  ASSERT_TRUE(builder.Finish().ok());
  IoStats stats;
  auto table = SSTable::Open(path, 1, &stats).MoveValue();
  LsmValue v;
  int bloom_skips = 0;
  for (uint64_t k = 1; k < 999; k += 2) {  // all absent, inside key range
    ASSERT_TRUE(table->Get(k, &v).ok());
    bloom_skips = static_cast<int>(stats.bloom_negative);
  }
  EXPECT_GT(bloom_skips, 400);  // most misses never touch a data block
}

// ---------------------------------------------------------------------------
// LsmStore
// ---------------------------------------------------------------------------

TEST(LsmStoreTest, FlushProducesSSTables) {
  LsmStore::Options options;
  options.memtable_limit = 100;
  LsmStore store(ScratchDir("lsm_flush"), options);
  for (Timestamp t = 0; t < 50; ++t) {
    for (ObjectId o = 0; o < 10; ++o) {
      ASSERT_TRUE(store.Put(t, o, t, o).ok());
    }
  }
  EXPECT_GT(store.num_sstables(), 0u);
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(store.memtable_entries(), 0u);
  EXPECT_EQ(store.num_points(), 500u);
}

TEST(LsmStoreTest, CompactionMergesTiers) {
  LsmStore::Options options;
  options.memtable_limit = 64;
  options.tier_fanout = 2;
  LsmStore store(ScratchDir("lsm_compact"), options);
  for (Timestamp t = 0; t < 100; ++t) {
    for (ObjectId o = 0; o < 8; ++o) ASSERT_TRUE(store.Put(t, o, t, o).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GT(store.compactions_run(), 0u);
  // All data still readable after compaction.
  std::vector<SnapshotPoint> out;
  for (Timestamp t = 0; t < 100; ++t) {
    ASSERT_TRUE(store.ScanTimestamp(t, &out).ok());
    ASSERT_EQ(out.size(), 8u) << "tick " << t;
  }
}

// Regression test for a guard-aliasing hazard the thread-safety annotation
// pass flushed out (runs under the sanitize-tsan CI job): the background
// worker used to pass &io_stats_ straight into SSTable::Open while mu_ was
// dropped around flush/compaction IO — a live sink pointer into mu_-guarded
// state held across the unlocked window, so the moment Open (or anything
// reached from it) charges the sink, it races every foreground scan
// charging the same struct under mu_. The fix opens each freshly built
// table without a sink and only points it at io_stats() (SSTable::
// set_io_sink) after re-taking mu_. This test keeps the
// interleaving hot — a tiny memtable keeps the worker opening tables while
// a dedicated reader charges io_stats() nonstop — so TSan fires if the
// unlocked window ever touches the shared counters again.
TEST(LsmStoreTest, BackgroundOpenDoesNotRaceForegroundIoAccounting) {
  LsmStore::Options options;
  options.memtable_limit = 16;  // rotate constantly: keep the worker opening
  options.tier_fanout = 2;
  ASSERT_TRUE(options.background_compaction);  // the racing thread
  LsmStore store(ScratchDir("lsm_io_race"), options);
  // Prime some tables so the reader has disk IO to charge from tick 0.
  for (Timestamp t = 0; t < 40; ++t) {
    for (ObjectId o = 0; o < 4; ++o) ASSERT_TRUE(store.Put(t, o, t, o).ok());
  }
  // A dedicated reader hammers table scans (each charges io_stats() under
  // mu_) for the whole run, so a worker-side unlocked write to the same
  // struct overlaps a reader access and trips TSan. LsmStore's internal
  // locking makes the concurrent reads safe — this is a white-box test of
  // exactly that property.
  std::atomic<bool> done{false};
  std::atomic<bool> read_failed{false};
  std::thread reader([&] {
    std::vector<SnapshotPoint> out;
    uint64_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (!store.ScanTimestamp(static_cast<Timestamp>(i++ % 40), &out).ok()) {
        read_failed.store(true);
        return;
      }
    }
  });
  for (Timestamp t = 40; t < 400; ++t) {
    for (ObjectId o = 0; o < 4; ++o) {
      ASSERT_TRUE(store.Put(t, o, t, o).ok());
    }
  }
  ASSERT_TRUE(store.Flush().ok());
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(read_failed.load());
  EXPECT_EQ(store.num_points(), 1600u);
  // Open-time IO of published tables still lands in the foreground account,
  // never in background_io_stats() (which only holds merge-input reads).
  EXPECT_GT(store.io_stats().bytes_read, 0u);
}

TEST(LsmStoreTest, NewestVersionWinsAcrossMemtableAndTables) {
  LsmStore store(ScratchDir("lsm_version"));
  ASSERT_TRUE(store.Put(0, 1, 1.0, 1.0).ok());
  ASSERT_TRUE(store.Flush().ok());          // version 1 on disk
  ASSERT_TRUE(store.Put(0, 1, 2.0, 2.0).ok());  // version 2 in memtable
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store.ScanTimestamp(0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].x, 2.0);
  ASSERT_TRUE(store.GetPoints(0, ObjectSet::Of({1}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].x, 2.0);

  // Flush both and let compaction resolve versions on disk too.
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(store.ScanTimestamp(0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].x, 2.0);
}

TEST(LsmStoreTest, BulkLoadRunsThroughWritePath) {
  RandomWalkSpec spec;
  spec.num_objects = 30;
  spec.num_ticks = 200;  // 6000 rows
  spec.seed = 5;
  const Dataset ds = GenerateRandomWalk(spec);
  LsmStore::Options options;
  options.memtable_limit = 1000;
  LsmStore store(ScratchDir("lsm_bulk"), options);
  ASSERT_TRUE(store.BulkLoad(ds).ok());
  EXPECT_GT(store.num_sstables(), 1u);  // several flushes happened
  EXPECT_EQ(store.num_points(), ds.num_points());
}

TEST(LsmStoreTest, TimestampsTrackInserts) {
  LsmStore store(ScratchDir("lsm_ticks"));
  ASSERT_TRUE(store.Put(5, 1, 0, 0).ok());
  ASSERT_TRUE(store.Put(2, 1, 0, 0).ok());
  ASSERT_TRUE(store.Put(5, 2, 0, 0).ok());
  EXPECT_EQ(store.timestamps(), (std::vector<Timestamp>{2, 5}));
  EXPECT_EQ(store.time_range(), (TimeRange{2, 5}));
}

TEST(LsmStoreTest, TimestampsStaySortedUnderOutOfOrderPuts) {
  // The tick list is maintained eagerly on Put (timestamps() used to
  // rebuild it lazily inside a const method — a data race under concurrent
  // metadata reads), so it must stay correct for any insertion order.
  LsmStore store(ScratchDir("lsm_ticks"));
  for (Timestamp t : {5, 3, 9, 3, 7, 1, 9}) {
    ASSERT_TRUE(store.Put(t, 1, 0.0, 0.0).ok());
  }
  EXPECT_EQ(store.timestamps(), (std::vector<Timestamp>{1, 3, 5, 7, 9}));
  EXPECT_EQ(store.time_range(), (TimeRange{1, 9}));
  // timestamps() on a const ref must not mutate anything.
  const LsmStore& cref = store;
  EXPECT_EQ(cref.timestamps().size(), 5u);
}

TEST(LsmStoreTest, WalSegmentRotationBySizeAndMultiSegmentReplay) {
  const std::string dir = ScratchDir("lsm_wal_rotate");
  LsmStore::Options options;
  options.memtable_limit = 1 << 20;  // never rotate the memtable
  options.background_compaction = false;
  options.wal.segment_bytes = 256;  // a handful of ticks per segment
  {
    LsmStore store(dir, options);
    ASSERT_TRUE(store.status().ok());
    EXPECT_EQ(store.active_wal_segments(), 1u);
    for (Timestamp t = 0; t < 40; ++t) {
      std::vector<SnapshotPoint> points;
      for (ObjectId o = 0; o < 4; ++o) {
        points.push_back(SnapshotPoint{o, double(t), double(o)});
      }
      ASSERT_TRUE(store.Append(t, points).ok());
    }
    // The cap is far below 40 ticks of frames, so the active memtable must
    // now be fed by a chain of rotated segments.
    EXPECT_GT(store.active_wal_segments(), 1u);
    EXPECT_EQ(store.num_sstables(), 0u);  // all 160 rows live in WAL only
    // Destroyed without Flush: recovery must replay the whole chain.
  }
  for (int reopen = 0; reopen < 2; ++reopen) {
    // Second reopen proves orphan deletion spared the live rotated
    // segments the first recovery re-adopted.
    LsmStore store(dir, options);
    ASSERT_TRUE(store.status().ok()) << store.status().ToString();
    EXPECT_EQ(store.num_points(), 160u) << "reopen " << reopen;
    std::vector<SnapshotPoint> out;
    for (Timestamp t = 0; t < 40; ++t) {
      ASSERT_TRUE(store.ScanTimestamp(t, &out).ok());
      ASSERT_EQ(out.size(), 4u) << "tick " << t << " reopen " << reopen;
      EXPECT_DOUBLE_EQ(out[0].x, double(t));
    }
  }
}

TEST(LsmStoreTest, ReopeningKeepsWalSegmentsAndFilesBounded) {
  // Recovery drops every replayed segment that held no record, so twenty
  // reopens neither add segments to the MANIFEST nor leave files behind.
  for (bool unflushed_tick : {false, true}) {
    SCOPED_TRACE(unflushed_tick ? "one unflushed tick" : "bulk-loaded");
    const std::string dir =
        ScratchDir(unflushed_tick ? "lsm_reopen_tick" : "lsm_reopen");
    RandomWalkSpec spec;
    spec.num_objects = 8;
    spec.num_ticks = 20;
    uint64_t points = 0;
    {
      LsmStore store(dir);
      ASSERT_TRUE(store.BulkLoad(GenerateRandomWalk(spec)).ok());
      if (unflushed_tick) {
        ASSERT_TRUE(store.Append(spec.num_ticks, {{0, 1.0, 2.0}}).ok());
      }
      points = store.num_points();
    }
    auto count_files = [&] {
      return std::distance(std::filesystem::directory_iterator(dir),
                           std::filesystem::directory_iterator());
    };
    ptrdiff_t files = 0;
    for (int reopen = 0; reopen < 20; ++reopen) {
      LsmStore store(dir);
      ASSERT_TRUE(store.status().ok()) << store.status().ToString();
      EXPECT_EQ(store.active_wal_segments(), unflushed_tick ? 2u : 1u)
          << "reopen " << reopen;
      EXPECT_EQ(store.num_points(), points) << "reopen " << reopen;
      if (reopen == 0) files = count_files();
      EXPECT_EQ(count_files(), files) << "reopen " << reopen;
    }
  }
}

TEST(LsmStoreTest, WalSegmentChainResetsWhenMemtableRotates) {
  LsmStore::Options options;
  options.memtable_limit = 1 << 20;
  options.background_compaction = false;
  options.wal.segment_bytes = 128;
  LsmStore store(ScratchDir("lsm_wal_reset"), options);
  for (Timestamp t = 0; t < 20; ++t) {
    ASSERT_TRUE(store.Put(t, 0, t, 0).ok());
  }
  EXPECT_GT(store.active_wal_segments(), 1u);
  // A memtable rotation seals the whole chain with it; the fresh memtable
  // starts over on a single new segment.
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(store.active_wal_segments(), 1u);
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store.ScanTimestamp(7, &out).ok());
  ASSERT_EQ(out.size(), 1u);
}

TEST(LsmStoreTest, BloomAblationStillCorrect) {
  LsmStore::Options options;
  options.use_bloom = false;
  options.memtable_limit = 50;
  LsmStore store(ScratchDir("lsm_nobloom"), options);
  for (Timestamp t = 0; t < 30; ++t) {
    for (ObjectId o = 0; o < 5; ++o) ASSERT_TRUE(store.Put(t, o, t, o).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store.GetPoints(10, ObjectSet::Of({0, 3, 9}), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(store.io_stats().bloom_negative, 0u);
}

}  // namespace
}  // namespace k2
