// Fault-injection tests for the crash-safe LSM write path (smoke tier).
// Covers the building blocks — CRC32C, FaultInjectionEnv semantics, WAL
// framing (including randomized truncation / bit-flip properties), atomic
// SSTable publication with named Open() errors, MANIFEST round-trips — and
// LsmStore recovery basics plus a strided crash-matrix sweep. The exhaustive
// every-failpoint sweep over all fixture families lives in
// lsm_crash_differential_test.cc (slow tier).
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/cmc.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/k2hop.h"
#include "gen/synthetic.h"
#include "storage/key.h"
#include "storage/lsm/manifest.h"
#include "storage/lsm/sstable.h"
#include "storage/lsm/wal.h"
#include "storage/lsm_store.h"
#include "tests/lsm_crash_util.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::CountCleanOps;
using ::k2::testing::CrashFixture;
using ::k2::testing::CrashScratchDir;
using ::k2::testing::RunCrashIteration;
using ::k2::testing::StreamTicks;
using ::k2::testing::SweepStoreOptions;
using FaultMode = FaultInjectionEnv::FaultMode;

std::string ReadAll(const std::string& path) {
  auto r = Env::Default()->ReadFileToString(path);
  K2_CHECK(r.ok());
  return r.MoveValue();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  K2_CHECK(out.good());
}

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32cTest, KnownAnswer) {
  // The canonical CRC-32C check value (RFC 3720 appendix / iSCSI).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, SeedChainsIncrementally) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{17}, data.size()}) {
    const uint32_t part = Crc32c(data.data(), split);
    EXPECT_EQ(Crc32c(data.data() + split, data.size() - split, part), whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data = "payload under test";
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    data[byte] ^= 0x10;
    EXPECT_NE(Crc32c(data.data(), data.size()), clean) << "byte " << byte;
    data[byte] ^= 0x10;
  }
}

// ---------------------------------------------------------------------------
// FaultInjectionEnv

TEST(FaultInjectionEnvTest, CrashDropsUnsyncedBytes) {
  const std::string dir = CrashScratchDir("env_crash");
  const std::string path = dir + "/f";
  FaultInjectionEnv env;
  auto file_r = env.NewWritableFile(path);
  ASSERT_TRUE(file_r.ok());
  auto file = file_r.MoveValue();
  ASSERT_TRUE(file->Append("AAAA", 4).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append("BBBB", 4).ok());
  EXPECT_EQ(ReadAll(path), "AAAABBBB");  // in the "page cache"

  env.CrashNow();
  EXPECT_TRUE(env.crashed());
  // Power cut: the unsynced suffix is gone, the env is dead.
  EXPECT_EQ(ReadAll(path), "AAAA");
  EXPECT_FALSE(file->Append("C", 1).ok());
  EXPECT_FALSE(file->Sync().ok());
  EXPECT_FALSE(env.NewWritableFile(dir + "/g").ok());
  EXPECT_FALSE(env.RenameFile(path, dir + "/h").ok());
  EXPECT_FALSE(env.ReadFileToString(path).ok());
}

TEST(FaultInjectionEnvTest, FailOpFiresExactlyOnce) {
  const std::string dir = CrashScratchDir("env_failop");
  FaultInjectionEnv env;
  // Op 0: create. Op 1: append (armed). Op 2+: back to normal.
  env.ArmFault(FaultMode::kFailOp, 1);
  auto file_r = env.NewWritableFile(dir + "/f");
  ASSERT_TRUE(file_r.ok());
  auto file = file_r.MoveValue();
  const Status failed = file->Append("AAAA", 4);
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("injected"), std::string::npos);
  EXPECT_TRUE(env.triggered());
  EXPECT_FALSE(env.crashed());
  // One-shot: the env stays alive and the write never reached the file.
  ASSERT_TRUE(file->Append("BBBB", 4).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
  EXPECT_EQ(ReadAll(dir + "/f"), "BBBB");
  EXPECT_EQ(env.op_count(), 5u);  // create, append, append, sync, close
}

TEST(FaultInjectionEnvTest, TornWriteKeepsPrefixOfUnsyncedTail) {
  const std::string dir = CrashScratchDir("env_torn");
  const std::string path = dir + "/f";
  FaultInjectionEnv env;
  auto file = env.NewWritableFile(path).MoveValue();
  ASSERT_TRUE(file->Append("AAAA", 4).ok());
  ASSERT_TRUE(file->Sync().ok());
  env.ArmFault(FaultMode::kTornWrite, env.op_count());
  EXPECT_FALSE(file->Append("BBBBBBBB", 8).ok());
  EXPECT_TRUE(env.crashed());
  // synced(4) + half of the torn 8-byte append.
  EXPECT_EQ(ReadAll(path), "AAAABBBB");
}

TEST(FaultInjectionEnvTest, RenameTracksSyncedState) {
  const std::string dir = CrashScratchDir("env_rename");
  FaultInjectionEnv env;
  auto file = env.NewWritableFile(dir + "/f.tmp").MoveValue();
  ASSERT_TRUE(file->Append("DATA", 4).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
  ASSERT_TRUE(env.RenameFile(dir + "/f.tmp", dir + "/f").ok());
  env.CrashNow();
  // The synced bytes follow the file across the rename.
  EXPECT_EQ(ReadAll(dir + "/f"), "DATA");
}

// ---------------------------------------------------------------------------
// WAL framing

std::vector<std::string> MakeRecords(Rng* rng, size_t n) {
  std::vector<std::string> records;
  for (size_t i = 0; i < n; ++i) {
    std::string payload(rng->NextInt(100), '\0');
    for (char& c : payload) c = static_cast<char>('a' + rng->NextInt(26));
    records.push_back(std::move(payload));
  }
  return records;
}

std::string WriteWal(const std::string& path,
                     const std::vector<std::string>& records) {
  auto wal = lsm::WalWriter::Create(Env::Default(), path).MoveValue();
  for (const std::string& r : records) {
    K2_CHECK_OK(wal->AddRecord(r.data(), r.size()));
  }
  K2_CHECK_OK(wal->Sync());
  K2_CHECK_OK(wal->Close());
  return ReadAll(path);
}

std::vector<std::string> Replayed(const std::string& path) {
  std::vector<std::string> got;
  auto n = lsm::ReplayWal(Env::Default(), path,
                          [&](const char* p, size_t len) {
                            got.emplace_back(p, len);
                          });
  K2_CHECK(n.ok());
  K2_CHECK(n.value() == got.size());
  return got;
}

TEST(WalTest, RoundTrip) {
  const std::string dir = CrashScratchDir("wal_rt");
  Rng rng(11);
  const std::vector<std::string> records = MakeRecords(&rng, 50);
  WriteWal(dir + "/wal", records);
  EXPECT_EQ(Replayed(dir + "/wal"), records);
}

TEST(WalTest, MissingFileIsAnError) {
  const std::string dir = CrashScratchDir("wal_missing");
  auto n = lsm::ReplayWal(Env::Default(), dir + "/nope",
                          [](const char*, size_t) {});
  EXPECT_FALSE(n.ok());
}

// Property: truncating the file at ANY byte recovers exactly the records
// whose frames end at or before the cut — never garbage, never a record
// reordered or skipped.
TEST(WalTest, TruncationRecoversLongestValidPrefix) {
  const std::string dir = CrashScratchDir("wal_trunc");
  constexpr uint64_t kSeed = 20260807;
  Rng rng(kSeed);
  const std::vector<std::string> records = MakeRecords(&rng, 40);
  const std::string bytes = WriteWal(dir + "/wal", records);

  // frame_end[i] = offset one past record i's frame.
  std::vector<size_t> frame_end;
  size_t off = 0;
  for (const std::string& r : records) {
    off += 8 + r.size();  // crc32 + len32 + payload
    frame_end.push_back(off);
  }
  ASSERT_EQ(off, bytes.size());

  auto expected_count = [&](size_t cut) {
    size_t n = 0;
    while (n < frame_end.size() && frame_end[n] <= cut) ++n;
    return n;
  };

  std::vector<size_t> cuts = frame_end;  // every boundary ...
  cuts.push_back(0);
  for (int i = 0; i < 120; ++i) {  // ... plus random interior cuts
    cuts.push_back(rng.NextInt(bytes.size() + 1));
  }
  for (size_t cut : cuts) {
    SCOPED_TRACE("seed=" + std::to_string(kSeed) +
                 " cut=" + std::to_string(cut) + "/" +
                 std::to_string(bytes.size()));
    WriteAll(dir + "/cut", bytes.substr(0, cut));
    const std::vector<std::string> got = Replayed(dir + "/cut");
    ASSERT_EQ(got.size(), expected_count(cut));
    for (size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], records[i]);
  }
}

// Property: flipping any single bit inside record i's frame recovers exactly
// records [0, i) — CRC32C detects all single-bit errors, and a corrupt
// length field can only stop replay, not resurrect later frames.
TEST(WalTest, BitFlipRecoversPrecedingRecords) {
  const std::string dir = CrashScratchDir("wal_flip");
  constexpr uint64_t kSeed = 977;
  Rng rng(kSeed);
  const std::vector<std::string> records = MakeRecords(&rng, 30);
  const std::string bytes = WriteWal(dir + "/wal", records);

  std::vector<size_t> frame_begin;
  size_t off = 0;
  for (const std::string& r : records) {
    frame_begin.push_back(off);
    off += 8 + r.size();
  }

  for (int trial = 0; trial < 150; ++trial) {
    const size_t frame = rng.NextInt(records.size());
    const size_t frame_size = 8 + records[frame].size();
    const size_t byte = frame_begin[frame] + rng.NextInt(frame_size);
    const int bit = static_cast<int>(rng.NextInt(8));
    SCOPED_TRACE("seed=" + std::to_string(kSeed) +
                 " trial=" + std::to_string(trial) +
                 " frame=" + std::to_string(frame) +
                 " byte=" + std::to_string(byte) +
                 " bit=" + std::to_string(bit));
    std::string corrupt = bytes;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
    WriteAll(dir + "/flip", corrupt);
    const std::vector<std::string> got = Replayed(dir + "/flip");
    ASSERT_EQ(got.size(), frame);
    for (size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], records[i]);
  }
}

// ---------------------------------------------------------------------------
// SSTable atomic publication + Open validation

std::string BuildTable(Env* env, const std::string& path, int keys,
                       Status* out = nullptr) {
  lsm::SSTableBuilder builder(env, path);
  builder.Reserve(static_cast<size_t>(keys));
  Status st;
  for (int i = 0; i < keys && st.ok(); ++i) {
    st = builder.Add(MakeKey(i / 10, static_cast<ObjectId>(i % 10)),
                     lsm::LsmValue{static_cast<double>(i), -1.0});
  }
  if (st.ok()) st = builder.Finish();
  if (out != nullptr) *out = st;
  return path;
}

void ExpectTableComplete(const std::string& path, int keys) {
  IoStats stats;
  auto table_r = lsm::SSTable::Open(path, 1, &stats);
  ASSERT_TRUE(table_r.ok()) << table_r.status().ToString();
  auto table = table_r.MoveValue();
  ASSERT_EQ(table->num_entries(), static_cast<uint64_t>(keys));
  int seen = 0;
  ASSERT_TRUE(table
                  ->Scan(0, ~0ULL,
                         [&](uint64_t key, const lsm::LsmValue& v) {
                           EXPECT_EQ(v.x, static_cast<double>(seen));
                           EXPECT_EQ(key, MakeKey(seen / 10, seen % 10));
                           ++seen;
                         })
                  .ok());
  EXPECT_EQ(seen, keys);
}

// Sweep a crash over every durability op of a table build: afterwards the
// final path either does not exist (at most a .tmp orphan remains) or holds
// a complete, validating table. There is no in-between.
TEST(SSTableCrashTest, PublicationIsAtomicAtEveryFailpoint) {
  constexpr int kKeys = 400;  // 3 blocks
  uint64_t total;
  {
    FaultInjectionEnv env;
    BuildTable(&env, CrashScratchDir("sst_count") + "/t.sst", kKeys);
    total = env.op_count();
  }
  ASSERT_GE(total, 5u);
  for (FaultMode mode : {FaultMode::kCrash, FaultMode::kTornWrite}) {
    for (uint64_t fp = 0; fp < total; ++fp) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " failpoint=" + std::to_string(fp));
      const std::string dir = CrashScratchDir("sst_sweep");
      const std::string path = dir + "/t.sst";
      FaultInjectionEnv env;
      env.ArmFault(mode, fp);
      Status st;
      BuildTable(&env, path, kKeys, &st);
      ASSERT_FALSE(st.ok()) << "failpoint below total must fail the build";
      if (Env::Default()->FileExists(path)) {
        // The rename happened: the table must be complete and valid.
        ExpectTableComplete(path, kKeys);
      }
    }
  }
}

TEST(SSTableCrashTest, AbandonedBuildRemovesTempFile) {
  const std::string dir = CrashScratchDir("sst_abandon");
  {
    lsm::SSTableBuilder builder(Env::Default(), dir + "/t.sst");
    ASSERT_TRUE(builder.Add(MakeKey(0, 0), lsm::LsmValue{1.0, 2.0}).ok());
    // No Finish(): destructor must clean up.
  }
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/t.sst"));
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/t.sst.tmp"));
}

void ExpectOpenFails(const std::string& path, const std::string& needle) {
  IoStats stats;
  auto r = lsm::SSTable::Open(path, 1, &stats);
  ASSERT_FALSE(r.ok()) << "expected rejection: " << needle;
  EXPECT_EQ(r.status().code(), StatusCode::kInvalid);
  EXPECT_NE(r.status().message().find(needle), std::string::npos)
      << r.status().ToString();
}

TEST(SSTableCrashTest, OpenRejectsCorruptFilesWithNamedErrors) {
  const std::string dir = CrashScratchDir("sst_corrupt");
  const std::string good = BuildTable(Env::Default(), dir + "/t.sst", 400);
  const std::string bytes = ReadAll(good);
  ASSERT_GT(bytes.size(), 100u);

  WriteAll(dir + "/empty.sst", "");
  ExpectOpenFails(dir + "/empty.sst", "truncated SSTable");

  WriteAll(dir + "/short.sst", bytes.substr(0, 10));
  ExpectOpenFails(dir + "/short.sst", "truncated SSTable");

  std::string bad_magic = bytes;
  bad_magic.back() = static_cast<char>(bad_magic.back() ^ 0xFF);
  WriteAll(dir + "/magic.sst", bad_magic);
  ExpectOpenFails(dir + "/magic.sst", "bad SSTable magic");

  // Flip a byte in the index/bloom region: footer still parses, meta CRC
  // catches the damage.
  uint64_t index_offset;
  std::memcpy(&index_offset, bytes.data() + bytes.size() - 40, 8);
  ASSERT_LT(index_offset + 3, bytes.size() - 40);
  std::string bad_meta = bytes;
  bad_meta[index_offset + 3] = static_cast<char>(bad_meta[index_offset + 3] ^ 1);
  WriteAll(dir + "/meta.sst", bad_meta);
  ExpectOpenFails(dir + "/meta.sst", "SSTable meta checksum mismatch");

  // Chop one byte: the 40 bytes now read as a footer are misaligned garbage.
  WriteAll(dir + "/chop.sst", bytes.substr(0, bytes.size() - 1));
  IoStats stats;
  EXPECT_FALSE(lsm::SSTable::Open(dir + "/chop.sst", 1, &stats).ok());
}

// Rewrites the table at `path` with its bloom header replaced by
// (num_hashes_word, num_words) — the words copied from the original, or
// zero past its end — a footer moved to match and the meta CRC recomputed,
// so only the header check can tell the file from a builder's.
std::string WithBloomHeader(const std::string& bytes, uint32_t num_hashes_word,
                            uint32_t num_words) {
  const size_t footer_at = bytes.size() - 40;
  uint64_t index_offset, bloom_offset;
  std::memcpy(&index_offset, bytes.data() + footer_at, 8);
  std::memcpy(&bloom_offset, bytes.data() + footer_at + 8, 8);
  uint32_t old_words;
  std::memcpy(&old_words, bytes.data() + bloom_offset + 4, 4);
  std::string out = bytes.substr(0, bloom_offset);
  out.append(reinterpret_cast<const char*>(&num_hashes_word), 4);
  out.append(reinterpret_cast<const char*>(&num_words), 4);
  const std::string old_bits = bytes.substr(bloom_offset + 8, old_words * 8);
  out += old_bits.substr(0, std::min<size_t>(old_bits.size(), num_words * 8));
  out.resize(bloom_offset + 8 + size_t{num_words} * 8, '\0');
  const uint32_t crc =
      Crc32c(out.data() + index_offset, out.size() - index_offset);
  std::string footer = bytes.substr(footer_at);
  std::memcpy(footer.data() + 24, &crc, 4);
  return out + footer;
}

// Every builder writes the blocked-layout flag, a power-of-two word count
// of at least 8 and 1-12 hashes. A header outside that passes the meta CRC
// when its writer recomputed it, and probing it would read outside the word
// array (3 words make the block mask words/8 - 1 wrap), so Open names it.
TEST(SSTableCrashTest, OpenRejectsBloomHeadersTheBuilderCannotWrite) {
  const std::string dir = CrashScratchDir("sst_bloom_header");
  const std::string bytes =
      ReadAll(BuildTable(Env::Default(), dir + "/t.sst", 400));
  uint64_t bloom_offset;
  std::memcpy(&bloom_offset, bytes.data() + bytes.size() - 32, 8);
  uint32_t hashes, words;
  std::memcpy(&hashes, bytes.data() + bloom_offset, 4);
  std::memcpy(&words, bytes.data() + bloom_offset + 4, 4);
  const uint32_t kFlag = lsm::BloomFilter::kBlockedLayoutFlag;
  ASSERT_NE(hashes & kFlag, 0u);

  // The rewrite itself is sound: the builder's own header still opens, and
  // so does another header a builder could write.
  WriteAll(dir + "/same.sst", WithBloomHeader(bytes, hashes, words));
  IoStats stats;
  ASSERT_TRUE(lsm::SSTable::Open(dir + "/same.sst", 1, &stats).ok());
  WriteAll(dir + "/wider.sst", WithBloomHeader(bytes, kFlag | 12, words * 2));
  ASSERT_TRUE(lsm::SSTable::Open(dir + "/wider.sst", 1, &stats).ok());

  struct BadHeader {
    uint32_t hashes, words;
    const char* error;
  };
  const BadHeader bad[] = {
      {hashes & ~kFlag, words, "blocked-layout flag missing"},
      {kFlag | 7, 3, "word count not a power of two of at least 8"},
      {kFlag | 7, 0, "word count not a power of two of at least 8"},
      {kFlag | 7, 4, "word count not a power of two of at least 8"},
      {kFlag | 7, 12, "word count not a power of two of at least 8"},
      {kFlag | 0, words, "hash count outside 1-12"},
      {kFlag | 13, words, "hash count outside 1-12"},
      {kFlag | 0x7FFFFFFF, words, "hash count outside 1-12"},
  };
  for (const BadHeader& b : bad) {
    SCOPED_TRACE(b.error);
    WriteAll(dir + "/bad.sst", WithBloomHeader(bytes, b.hashes, b.words));
    ExpectOpenFails(dir + "/bad.sst",
                    std::string("SSTable bloom header invalid (") + b.error);
  }
}

// ---------------------------------------------------------------------------
// MANIFEST

TEST(ManifestTest, RoundTrip) {
  const std::string dir = CrashScratchDir("manifest_rt");
  lsm::ManifestState state;
  state.next_seq = 42;
  state.live_wals = {7, 9};
  state.tables = {{0, 5, "sstable_5.sst", 123}, {1, 3, "sstable_3.sst", 456}};
  ASSERT_TRUE(lsm::WriteManifest(Env::Default(), dir, state).ok());
  // No .tmp left behind.
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/MANIFEST.tmp"));

  auto read = lsm::ReadManifest(Env::Default(), dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().next_seq, 42u);
  EXPECT_EQ(read.value().live_wals, (std::vector<uint64_t>{7, 9}));
  ASSERT_EQ(read.value().tables.size(), 2u);
  EXPECT_EQ(read.value().tables[0].tier, 0u);
  EXPECT_EQ(read.value().tables[0].seq, 5u);
  EXPECT_EQ(read.value().tables[0].file, "sstable_5.sst");
  EXPECT_EQ(read.value().tables[0].num_entries, 123u);
  EXPECT_EQ(read.value().tables[1].tier, 1u);
}

TEST(ManifestTest, MissingIsNotFound) {
  const std::string dir = CrashScratchDir("manifest_missing");
  auto read = lsm::ReadManifest(Env::Default(), dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(ManifestTest, CorruptionIsDetected) {
  const std::string dir = CrashScratchDir("manifest_corrupt");
  lsm::ManifestState state;
  state.next_seq = 9;
  state.tables = {{0, 2, "sstable_2.sst", 10}};
  ASSERT_TRUE(lsm::WriteManifest(Env::Default(), dir, state).ok());
  std::string bytes = ReadAll(dir + "/MANIFEST");

  // Flip a content byte: checksum mismatch.
  std::string flipped = bytes;
  flipped[bytes.find("sstable")] ^= 0x20;
  WriteAll(dir + "/MANIFEST", flipped);
  auto read = lsm::ReadManifest(Env::Default(), dir);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("manifest checksum mismatch"),
            std::string::npos)
      << read.status().ToString();

  // Drop the trailer: parse error.
  WriteAll(dir + "/MANIFEST", bytes.substr(0, bytes.rfind("crc32c")));
  read = lsm::ReadManifest(Env::Default(), dir);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("manifest parse error"),
            std::string::npos)
      << read.status().ToString();
}

// ---------------------------------------------------------------------------
// LsmStore recovery

CrashFixture WalkFixture() {
  RandomWalkSpec spec;
  spec.seed = 7;
  spec.num_objects = 14;
  spec.num_ticks = 36;
  spec.area = 55.0;
  spec.step = 7.0;
  return {"walk", GenerateRandomWalk(spec), MiningParams{2, 4, 10.0}};
}

TEST(LsmStoreCrashTest, SyncedTicksSurvivePowerCut) {
  const CrashFixture fix = WalkFixture();
  const std::string dir = CrashScratchDir("store_power_cut");
  FaultInjectionEnv env;
  {
    LsmStore store(dir, SweepStoreOptions(&env));
    ASSERT_TRUE(store.status().ok());
    const std::vector<Timestamp> durable = StreamTicks(&store, fix.data);
    ASSERT_EQ(durable.size(), fix.data.timestamps().size());
    env.CrashNow();  // power cut with the store still open
  }
  LsmStore recovered(dir, SweepStoreOptions(nullptr));
  ASSERT_TRUE(recovered.status().ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.timestamps(), fix.data.timestamps());
  std::vector<SnapshotPoint> points;
  for (Timestamp t : fix.data.timestamps()) {
    ASSERT_TRUE(recovered.ScanTimestamp(t, &points).ok());
    EXPECT_EQ(points, SnapshotPoints(fix.data, t)) << "tick " << t;
  }
}

TEST(LsmStoreCrashTest, UnsyncedPutIsLostSyncedAppendIsNot) {
  const std::string dir = CrashScratchDir("store_unsynced");
  FaultInjectionEnv env;
  {
    LsmStoreOptions options = SweepStoreOptions(&env);
    options.memtable_limit = 1 << 20;  // no flush: durability via WAL only
    LsmStore store(dir, options);
    ASSERT_TRUE(store.status().ok());
    for (Timestamp t = 0; t < 5; ++t) {
      ASSERT_TRUE(store.Append(t, {{0, 1.0 * t, 2.0}, {1, 3.0, 4.0}}).ok());
    }
    // Put never syncs: buffered in the WAL writer / page cache only.
    ASSERT_TRUE(store.Put(5, 0, 9.0, 9.0).ok());
    env.CrashNow();
  }
  LsmStore recovered(dir, SweepStoreOptions(nullptr));
  ASSERT_TRUE(recovered.status().ok());
  EXPECT_EQ(recovered.timestamps(),
            (std::vector<Timestamp>{0, 1, 2, 3, 4}));
}

TEST(LsmStoreCrashTest, FailedRecoveryIsAMiningError) {
  // A store whose recovery failed reports no data; mining it must return
  // the recovery error, not an empty convoy set.
  const CrashFixture fix = WalkFixture();
  const std::string dir = CrashScratchDir("store_bad_manifest");
  {
    LsmStore store(dir, SweepStoreOptions(nullptr));
    ASSERT_TRUE(store.BulkLoad(fix.data).ok());
    auto convoys = MineK2Hop(&store, fix.params);
    ASSERT_TRUE(convoys.ok()) << convoys.status().ToString();
    ASSERT_FALSE(convoys.value().empty());
  }
  std::string bytes = ReadAll(dir + "/MANIFEST");
  bytes[bytes.find("sstable")] ^= 0x01;
  WriteAll(dir + "/MANIFEST", bytes);

  LsmStore broken(dir, SweepStoreOptions(nullptr));
  ASSERT_FALSE(broken.status().ok());
  auto k2hop = MineK2Hop(&broken, fix.params);
  ASSERT_FALSE(k2hop.ok());
  EXPECT_EQ(k2hop.status().ToString(), broken.status().ToString());
  auto cmc = MineCmc(&broken, fix.params);
  ASSERT_FALSE(cmc.ok());
  EXPECT_EQ(cmc.status().ToString(), broken.status().ToString());
}

TEST(LsmStoreCrashTest, ReopenAfterCleanRunRecoversEverything) {
  const CrashFixture fix = WalkFixture();
  const std::string dir = CrashScratchDir("store_reopen");
  {
    LsmStore store(dir, SweepStoreOptions(nullptr));
    ASSERT_TRUE(store.status().ok());
    StreamTicks(&store, fix.data);
    // Destructor closes the WAL without flushing the memtable.
  }
  // Plant orphans that recovery must sweep (not in the MANIFEST).
  WriteAll(dir + "/sstable_999.sst", "garbage");
  WriteAll(dir + "/sstable_998.sst.tmp", "garbage");
  WriteAll(dir + "/wal_997.log", "garbage");

  LsmStore recovered(dir, SweepStoreOptions(nullptr));
  ASSERT_TRUE(recovered.status().ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.timestamps(), fix.data.timestamps());
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/sstable_999.sst"));
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/sstable_998.sst.tmp"));
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/wal_997.log"));

  auto mined = MineK2Hop(&recovered, fix.params);
  ASSERT_TRUE(mined.ok());
  auto batch_store = k2::testing::MakeMemStore(fix.data);
  auto expected = MineK2Hop(batch_store.get(), fix.params);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(mined.value(), expected.value());
}

TEST(LsmStoreCrashTest, WriteErrorIsStickyAndBulkLoadResets) {
  const CrashFixture fix = WalkFixture();
  const std::string dir = CrashScratchDir("store_sticky");
  FaultInjectionEnv env;
  LsmStoreOptions options = SweepStoreOptions(&env);
  options.background_compaction = true;
  options.max_pending_memtables = 1;
  LsmStore store(dir, options);
  ASSERT_TRUE(store.status().ok());

  // Fail one op somewhere inside the flush/compaction machinery.
  env.ArmFault(FaultMode::kFailOp, env.op_count() + 40);
  StreamTicks(&store, fix.data);
  Status flush = store.Flush();
  ASSERT_FALSE(flush.ok() && store.write_error().ok())
      << "injected op failure never surfaced";
  // Sticky: writes keep failing, reads keep working.
  EXPECT_FALSE(store.Append(10000, {{0, 1.0, 1.0}}).ok());
  std::vector<SnapshotPoint> points;
  EXPECT_TRUE(store.ScanTimestamp(fix.data.timestamps()[0], &points).ok());

  // BulkLoad wipes state and clears the error (the fault was one-shot).
  ASSERT_TRUE(store.BulkLoad(fix.data).ok());
  EXPECT_TRUE(store.write_error().ok());
  EXPECT_EQ(store.timestamps(), fix.data.timestamps());
  EXPECT_TRUE(store.Append(10000, {{0, 1.0, 1.0}}).ok());
}

// ---------------------------------------------------------------------------
// Crash matrix (strided smoke slice; the full sweep is in the slow suite)

TEST(LsmStoreCrashTest, StridedCrashMatrixSyncMode) {
  const CrashFixture fix = WalkFixture();
  const std::vector<Convoy> expected = [&] {
    auto store = k2::testing::MakeMemStore(fix.data);
    auto r = MineK2Hop(store.get(), fix.params);
    K2_CHECK(r.ok());
    return r.MoveValue();
  }();
  const uint64_t total = CountCleanOps(fix, "smoke", /*background=*/false);
  ASSERT_GT(total, 20u);
  for (FaultMode mode :
       {FaultMode::kCrash, FaultMode::kTornWrite, FaultMode::kFailOp}) {
    for (uint64_t fp = 0; fp < total + 2; fp += 7) {
      RunCrashIteration(fix, mode, fp, expected, /*background=*/false,
                        "smoke_sync");
    }
  }
}

TEST(LsmStoreCrashTest, RandomCrashMatrixBackgroundMode) {
  const CrashFixture fix = WalkFixture();
  const std::vector<Convoy> expected = [&] {
    auto store = k2::testing::MakeMemStore(fix.data);
    auto r = MineK2Hop(store.get(), fix.params);
    K2_CHECK(r.ok());
    return r.MoveValue();
  }();
  const uint64_t total = CountCleanOps(fix, "smoke_bg", /*background=*/true);
  Rng rng(4242);
  for (int i = 0; i < 12; ++i) {
    const auto mode =
        static_cast<FaultMode>(1 + rng.NextInt(3));  // kFailOp..kTornWrite
    const uint64_t fp = rng.NextInt(total + 2);
    RunCrashIteration(fix, mode, fp, expected, /*background=*/true,
                      "smoke_bg");
  }
}

}  // namespace
}  // namespace k2
