// Shared harness for the LSM crash-recovery matrix: fixtures, op counting,
// and the single-failpoint iteration (run workload under an armed
// FaultInjectionEnv until it dies -> reopen clean -> assert the recovered
// state is an intact prefix with zero durable ticks lost -> re-ingest the
// missing suffix -> assert mining output is byte-identical to the
// uninterrupted run). Used by lsm_crash_test.cc (smoke: strided sweep) and
// lsm_crash_differential_test.cc (slow: every failpoint, every mode, every
// fixture family).
#ifndef K2_TESTS_LSM_CRASH_UTIL_H_
#define K2_TESTS_LSM_CRASH_UTIL_H_

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "core/k2hop.h"
#include "model/dataset.h"
#include "storage/lsm_store.h"
#include "tests/test_util.h"

namespace k2::testing {

/// Scratch directory for crash sweeps. Prefers tmpfs (/dev/shm): the sweep
/// fdatasyncs per tick and per flush, and the simulated crash is a
/// truncate-to-synced-size — real disk durability adds nothing but latency.
inline std::string CrashScratchDir(const std::string& tag) {
  std::error_code ec;
  if (std::filesystem::is_directory("/dev/shm", ec)) {
    return FreshTestDir("/dev/shm", "crash_" + tag);
  }
  return ScratchDir("crash_" + tag);
}

struct CrashFixture {
  std::string name;
  Dataset data;
  MiningParams params;
};

/// Store shape for the sweeps: tiny memtable and fanout so flushes and
/// compaction cascades happen every few ticks, synchronous jobs so the op
/// sequence is deterministic, per-tick WAL sync so "Append returned OK"
/// means durable.
inline LsmStoreOptions SweepStoreOptions(Env* env) {
  LsmStoreOptions options;
  options.memtable_limit = 256;
  options.tier_fanout = 2;
  options.env = env;
  options.wal_sync_every_append = true;
  options.background_compaction = false;
  return options;
}

/// Streams every tick of `fix` through a store in `dir`; returns the ticks
/// whose Append returned OK (the durable set), stopping at the first error.
inline std::vector<Timestamp> StreamTicks(LsmStore* store, const Dataset& data) {
  std::vector<Timestamp> durable;
  for (Timestamp t : data.timestamps()) {
    if (!store->Append(t, SnapshotPoints(data, t)).ok()) break;
    durable.push_back(t);
  }
  return durable;
}

/// Durability ops of one uninterrupted workload run (including the
/// destructor's WAL close) — the sweep's failpoint range.
inline uint64_t CountCleanOps(const CrashFixture& fix, const std::string& tag,
                              bool background) {
  FaultInjectionEnv env;  // unarmed: counts only
  LsmStoreOptions options = SweepStoreOptions(&env);
  options.background_compaction = background;
  {
    LsmStore store(CrashScratchDir(tag + "_count"), options);
    EXPECT_TRUE(store.status().ok()) << store.status().ToString();
    StreamTicks(&store, fix.data);
  }
  return env.op_count();
}

/// One cell of the crash matrix. Kills the workload at durability op
/// `failpoint` with `mode`, reopens the directory with the real Env, and
/// checks the recovery contract:
///   1. recovery succeeds and yields a prefix of the tick stream;
///   2. every WAL-durable tick (Append returned OK) is in that prefix;
///   3. every recovered tick scans back byte-identical to the input;
///   4. after re-ingesting the lost suffix, MineK2Hop over the recovered
///      store equals `expected` exactly (the uninterrupted run's output).
inline void RunCrashIteration(const CrashFixture& fix,
                              FaultInjectionEnv::FaultMode mode,
                              uint64_t failpoint,
                              const std::vector<Convoy>& expected,
                              bool background, const std::string& tag) {
  SCOPED_TRACE("fixture=" + fix.name + " mode=" +
               std::to_string(static_cast<int>(mode)) +
               " failpoint=" + std::to_string(failpoint));
  const std::string dir = CrashScratchDir(tag);

  FaultInjectionEnv env;
  env.ArmFault(mode, failpoint);
  std::vector<Timestamp> durable;
  {
    LsmStoreOptions options = SweepStoreOptions(&env);
    options.background_compaction = background;
    LsmStore store(dir, options);
    if (store.status().ok()) {
      durable = StreamTicks(&store, fix.data);
    }
  }

  // Reopen against the real file system: whatever the injected failure left
  // behind, recovery must come up clean.
  LsmStoreOptions reopen = SweepStoreOptions(nullptr);
  reopen.wal_sync_every_append = false;  // re-ingest needs speed, not durability
  LsmStore recovered(dir, reopen);
  ASSERT_TRUE(recovered.status().ok()) << recovered.status().ToString();

  const std::vector<Timestamp>& all_ticks = fix.data.timestamps();
  const std::vector<Timestamp> got = recovered.timestamps();
  // 1 + 2: an intact prefix, at least as long as the durable set (a tick
  // whose Append died mid-way may still have landed; one that returned OK
  // must have).
  ASSERT_GE(got.size(), durable.size()) << "durable ticks lost";
  ASSERT_LE(got.size(), all_ticks.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], all_ticks[i]) << "recovered tick stream is not a prefix";
  }

  // 3: per-tick content.
  std::vector<SnapshotPoint> points;
  for (Timestamp t : got) {
    ASSERT_TRUE(recovered.ScanTimestamp(t, &points).ok());
    ASSERT_EQ(points, SnapshotPoints(fix.data, t)) << "tick " << t;
  }

  // 4: finish the stream and mine.
  for (size_t i = got.size(); i < all_ticks.size(); ++i) {
    const Timestamp t = all_ticks[i];
    ASSERT_TRUE(recovered.Append(t, SnapshotPoints(fix.data, t)).ok())
        << "re-ingest failed at tick " << t;
  }
  auto mined = MineK2Hop(&recovered, fix.params);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_EQ(mined.value(), expected)
      << "mining output diverged after crash recovery";

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace k2::testing

#endif  // K2_TESTS_LSM_CRASH_UTIL_H_
