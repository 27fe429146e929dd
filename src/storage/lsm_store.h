// Log-Structured Merge-tree store ("k2-LSMT", paper Sec. 5.2): skip-list
// memtable, immutable SSTables, size-tiered compaction. Because the composite
// key is (t, oid), all rows of a timestamp are co-located, so a benchmark
// scan is one range read with a single seek, while point reads use per-table
// bloom filters — precisely the access mix k/2-hop generates.
//
// Crash safety: every mutation is framed into a write-ahead log before it
// touches the memtable (Append fdatasyncs the WAL per tick by default), the
// MANIFEST records the live SSTables per tier plus the WAL segments still
// holding unflushed data, and SSTables are published atomically (tmp + fsync
// + rename). Reopening a directory replays the longest valid WAL prefix on
// top of the MANIFEST's tables — the recovery path the fault-injection crash
// matrix in tests/lsm_crash_*.cc sweeps op by op.
//
// Tail latency: a full memtable is handed off as an immutable run to a
// background thread that builds the SSTable and runs the compaction cascade,
// so the foreground Put/Append path never absorbs a flush or merge spike
// (LsmStoreOptions::background_compaction, on by default).
#ifndef K2_STORAGE_LSM_STORE_H_
#define K2_STORAGE_LSM_STORE_H_

#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/lsm/manifest.h"
#include "storage/lsm/skiplist.h"
#include "storage/lsm/sstable.h"
#include "storage/lsm/wal.h"
#include "storage/store.h"

namespace k2 {

struct LsmStoreOptions {
  /// Memtable entries before an automatic flush.
  size_t memtable_limit = 128 * 1024;
  /// Tables per tier before they are merged into the next tier.
  size_t tier_fanout = 4;
  /// Ablation switch: disable bloom filters on the read path.
  bool use_bloom = true;
  /// File-system shim for every write-path IO (WAL, SSTable build,
  /// MANIFEST); nullptr = Env::Default(). The fault-injection tests
  /// substitute a FaultInjectionEnv here.
  Env* env = nullptr;
  /// fdatasync the WAL once per Append() tick, making the tick durable
  /// before Append returns (~1 ms on commodity storage). Put() never syncs;
  /// its records become durable at the next Append, Flush, or rotation
  /// sync. Disabling trades per-tick durability for raw ingest speed.
  bool wal_sync_every_append = true;
  /// Run flush + compaction on a background thread (immutable-memtable
  /// handoff). Disabled, the same jobs run synchronously inside the write
  /// path — the deterministic mode the crash-matrix tests sweep.
  bool background_compaction = true;
  /// Ingest backpressure: a write that needs to rotate blocks while this
  /// many immutable memtables are already queued for flush.
  size_t max_pending_memtables = 2;
  /// WAL policy. wal.segment_bytes > 0 enables size-based segment rotation:
  /// the active segment is sealed and a new one chained onto the same
  /// memtable once it passes the cap, bounding single-file size (and torn
  /// tails to the last segment) independently of memtable_limit. With the
  /// default 0, segments rotate only with the memtable.
  lsm::WalOptions wal;
};

class LsmStore final : public Store {
 public:
  using Options = LsmStoreOptions;

  /// Opens (or creates) the store in `dir`, recovering MANIFEST + WAL state
  /// left by a previous process. A recovery failure is sticky: every
  /// subsequent operation returns it (see status()).
  explicit LsmStore(std::string dir, Options options = {});
  ~LsmStore() override;

  std::string name() const override { return "lsmt"; }
  /// Replaces all content with `dataset`, routing rows through the normal
  /// write path (flushes and compactions happen for real) but WITHOUT WAL
  /// logging: a bulk rebuild has nothing durable to promise until it
  /// returns, at which point the final Flush has published every row as
  /// SSTables + MANIFEST — stronger than WAL durability. A crash mid-load
  /// recovers some clean prefix of the dataset's rows.
  Status BulkLoad(const Dataset& dataset) override K2_EXCLUDES(mu_);
  Status Append(Timestamp t, const std::vector<SnapshotPoint>& points) override
      K2_EXCLUDES(mu_);
  Status ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) override
      K2_EXCLUDES(mu_);
  Status GetPoints(Timestamp t, const ObjectSet& objects,
                   std::vector<SnapshotPoint>* out) override K2_EXCLUDES(mu_);
  TimeRange time_range() const override;
  const std::vector<Timestamp>& timestamps() const override;
  // Invariant (analysis off): num_points_ is written only by the external
  // writer thread (Put/Append/BulkLoad, all under mu_) — the background
  // worker never touches it — and the Store contract forbids calling const
  // metadata accessors while a writer is active, so this unlocked read
  // cannot race. See docs/ARCHITECTURE.md, "Lock discipline".
  uint64_t num_points() const override K2_NO_THREAD_SAFETY_ANALYSIS {
    return num_points_;
  }

  /// Native snapshot: drains background work, then makes one SSTable
  /// reader per immutable table — sharing the table's mapping, block index
  /// and bloom filter, owning its block cache and IO accounting — and
  /// freezes the memtable into a sorted run, so concurrent readers share
  /// nothing mutable.
  Result<std::unique_ptr<Store>> CreateReadSnapshot() override
      K2_EXCLUDES(mu_);

  /// Single-row insert ("fast data inserts" requirement (3) of Sec. 5);
  /// WAL-logged, rotates the memtable automatically when full.
  Status Put(Timestamp t, ObjectId oid, double x, double y) K2_EXCLUDES(mu_);

  /// Rotates a non-empty memtable out and blocks until every queued flush
  /// and compaction has completed (and been committed to the MANIFEST).
  Status Flush() K2_EXCLUDES(mu_);

  /// First error of recovery-on-open, sticky across all operations.
  Status status() const override { return init_status_; }
  /// First unrecovered write-path error (WAL, flush, compaction, MANIFEST),
  /// sticky: later writes fail with it, reads keep working.
  Status write_error() const K2_EXCLUDES(mu_);

  size_t num_sstables() const K2_EXCLUDES(mu_);
  size_t num_tiers() const K2_EXCLUDES(mu_);
  /// WAL segments feeding the active memtable (>= 1 once writable; grows
  /// with size-based rotation, resets when the memtable rotates).
  size_t active_wal_segments() const K2_EXCLUDES(mu_);
  /// Entries in the active (mutable) memtable.
  size_t memtable_entries() const K2_EXCLUDES(mu_);
  uint64_t compactions_run() const K2_EXCLUDES(mu_);
  /// IO performed by flush/compaction reading their merge inputs — kept out
  /// of io_stats() so query-path pruning accounting stays clean.
  IoStats background_io_stats() const K2_EXCLUDES(mu_);

 private:
  /// An immutable memtable queued for flush, together with the WAL segments
  /// whose records it holds (deleted once the flush is committed).
  struct PendingMemtable {
    std::shared_ptr<const lsm::SkipList> mem;
    std::vector<uint64_t> wal_seqs;
  };

  // All Locked methods require mu_ held (K2_REQUIRES — a call without the
  // lock is a compile error under clang); the job methods (FlushFrontLocked,
  // CompactLocked) drop it around file IO and re-take it to install results.
  Status Recover() K2_EXCLUDES(mu_);
  Status WritableLocked() const K2_REQUIRES(mu_);
  std::string TableFilePath(uint64_t seq) const;
  std::string WalFilePath(uint64_t seq) const;
  lsm::ManifestState ManifestSnapshotLocked() const K2_REQUIRES(mu_);
  Status WriteManifestLocked() K2_REQUIRES(mu_);
  Status OpenActiveWalLocked(bool fresh_wal_set) K2_REQUIRES(mu_);
  Status WalAppendLocked(Timestamp t, const std::vector<SnapshotPoint>& points,
                         bool sync) K2_REQUIRES(mu_);
  void ApplyPutLocked(Timestamp t, ObjectId oid, double x, double y)
      K2_REQUIRES(mu_);
  Status MaybeRotateLocked() K2_REQUIRES(mu_);
  Status RotateMemtableLocked() K2_REQUIRES(mu_);
  Status RotateWalSegmentLocked() K2_REQUIRES(mu_);
  /// Blocks until queued work is done (background) or runs it inline (sync
  /// mode); returns the sticky write error if one surfaced.
  Status DrainLocked() K2_REQUIRES(mu_);
  Status FlushFrontLocked() K2_REQUIRES(mu_);
  Status CompactLocked() K2_REQUIRES(mu_);
  void RebuildFlatViewLocked() K2_REQUIRES(mu_);
  /// Fills `mems` (active memtable first, then pending newest-first) and
  /// returns the count. The caller must size `mems` for 1 + pending_.size();
  /// reads use a stack buffer since backpressure bounds the pending queue.
  size_t CollectMemsLocked(const lsm::SkipList** mems) const K2_REQUIRES(mu_);
  void StartWorker() K2_EXCLUDES(mu_);
  void StopWorker() K2_EXCLUDES(mu_);
  void WorkerMain() K2_EXCLUDES(mu_);

  std::string dir_;
  Options options_;
  Env* env_;
  Status init_status_;  ///< Written once in the constructor, then read-only.

  /// One lock guards every piece of shared LSM state below. Foreground
  /// reads hold it across the whole read (under the store contract one
  /// handle serves one reader at a time; this lock only fences the
  /// background thread), the worker holds it only while installing results.
  mutable Mutex mu_;
  CondVar work_cv_;   ///< Signals the worker: work or stop.
  CondVar drain_cv_;  ///< Signals waiters: job finished.

  /// Active, foreground-written memtable.
  std::unique_ptr<lsm::SkipList> memtable_ K2_GUARDED_BY(mu_);
  /// WAL segments feeding the active memtable.
  std::vector<uint64_t> active_wal_seqs_ K2_GUARDED_BY(mu_);
  std::unique_ptr<lsm::WalWriter> wal_ K2_GUARDED_BY(mu_);
  /// Oldest first, awaiting flush.
  std::deque<PendingMemtable> pending_ K2_GUARDED_BY(mu_);

  /// tiers_[i] = tables of tier i, oldest first. Tier number grows with
  /// table size (size-tiered compaction).
  std::vector<std::vector<std::unique_ptr<lsm::SSTable>>> tiers_
      K2_GUARDED_BY(mu_);
  /// All tables, newest first; rebuilt when the tier structure changes.
  std::vector<lsm::SSTable*> flat_newest_first_ K2_GUARDED_BY(mu_);
  uint64_t next_seq_ K2_GUARDED_BY(mu_) = 1;
  /// Written only by the external writer thread (under mu_); see
  /// num_points() for the unlocked const-read invariant.
  uint64_t num_points_ K2_GUARDED_BY(mu_) = 0;
  uint64_t compactions_run_ K2_GUARDED_BY(mu_) = 0;
  Status write_error_ K2_GUARDED_BY(mu_);
  /// True while BulkLoad streams rows in: WAL logging is skipped (see
  /// BulkLoad's durability note), everything else behaves normally.
  bool bulk_loading_ K2_GUARDED_BY(mu_) = false;
  /// Merge-input reads of flush/compaction jobs.
  IoStats bg_io_ K2_GUARDED_BY(mu_);

  std::thread worker_;
  bool worker_started_ K2_GUARDED_BY(mu_) = false;
  bool worker_busy_ K2_GUARDED_BY(mu_) = false;
  bool stop_ K2_GUARDED_BY(mu_) = false;

  /// Sorted, duplicate-free tick list, maintained eagerly on mutation
  /// (Put/BulkLoad) so the const read path never writes shared state —
  /// timestamps() used to rebuild a cache lazily inside a const method, a
  /// data race under the parallel mining pipeline's concurrent metadata
  /// reads. Unlocked const reads follow the num_points() invariant.
  std::vector<Timestamp> tick_cache_ K2_GUARDED_BY(mu_);

  /// Reused per-Append WAL record serialization buffer.
  std::string wal_scratch_ K2_GUARDED_BY(mu_);
};

}  // namespace k2

#endif  // K2_STORAGE_LSM_STORE_H_
