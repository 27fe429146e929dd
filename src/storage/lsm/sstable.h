// Immutable sorted-string table: 4 KiB data blocks of packed (key, x, y)
// entries, a sparse block index and a bloom filter kept resident, data blocks
// fetched from disk on demand. File layout (format v2):
//
//   [block 0][block 1]...[block B-1]
//   [index: B * {uint64 first_key, uint64 last_key, uint64 offset, u32 count}]
//   [bloom: uint32 num_hashes (top bit = blocked layout), uint32 num_words,
//    words...]
//   [footer: uint64 index_offset, uint64 bloom_offset, uint64 num_entries,
//            uint32 meta_crc32c (over index + bloom), uint32 version,
//            uint64 magic]
//
// Publication is atomic: the builder writes to `<path>.tmp` through an Env,
// fsyncs, closes, and renames onto the final path (rename + parent-dir
// fsync), so a reader can never observe a partially written table under the
// final name. Open() refuses truncated or corrupt files with named errors
// instead of parsing garbage — recovery after a crash depends on it.
#ifndef K2_STORAGE_LSM_SSTABLE_H_
#define K2_STORAGE_LSM_SSTABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "storage/lsm/bloom.h"
#include "storage/lsm/skiplist.h"

namespace k2 {
struct IoStats;
}

namespace k2::lsm {

inline constexpr uint64_t kSstMagic = 0x6b32686f70737374ULL;  // "k2hopsst"
inline constexpr uint32_t kSstFormatVersion = 2;
inline constexpr size_t kBlockEntries = 170;  // 24 B/entry -> ~4 KiB blocks

/// One sorted multi-get: the keys to resolve, ascending, and per key
/// whether a source has answered it and with what value. The store resolves
/// a batch source by source, newest first, so a key that a newer source
/// answered is never looked up in an older one.
struct PointBatch {
  std::vector<uint64_t> keys;
  std::vector<uint8_t> found;
  std::vector<LsmValue> values;

  /// Makes `n` pending slots; the caller fills `keys`.
  void Reset(size_t n) {
    keys.resize(n);
    found.assign(n, 0);
    values.resize(n);
  }
};

/// Writes one SSTable; Add() must be called in strictly increasing key order.
/// Nothing appears under the final path until Finish() has fsynced and
/// renamed the temporary file; a crash mid-build leaves at most a `.tmp`
/// orphan that recovery deletes.
class SSTableBuilder {
 public:
  SSTableBuilder(Env* env, std::string path);
  /// Convenience: builds through Env::Default().
  explicit SSTableBuilder(std::string path);
  ~SSTableBuilder();

  Status Add(uint64_t key, const LsmValue& value);
  /// Flushes everything, fsyncs, and atomically publishes the table.
  Status Finish();

  /// Pre-sizes the bloom filter; call before the first Add for best shape.
  void Reserve(size_t expected_keys);

  uint64_t num_entries() const { return num_entries_; }

 private:
  Status FlushBlock();

  struct IndexEntry {
    uint64_t first_key;
    uint64_t last_key;
    uint64_t offset;
    uint32_t count;
  };

  Env* env_;
  std::string path_;      // final path, target of the publishing rename
  std::string tmp_path_;  // path_ + ".tmp", where all writing happens
  std::unique_ptr<WritableFile> file_;
  std::string scratch_;  // per-block serialization buffer
  std::vector<std::pair<uint64_t, LsmValue>> block_;
  std::vector<IndexEntry> index_;
  std::vector<std::pair<uint64_t, LsmValue>> all_entries_;  // for bloom build
  uint64_t offset_ = 0;
  uint64_t num_entries_ = 0;
  uint64_t last_key_ = 0;
  bool has_last_key_ = false;
  size_t bloom_reserve_ = 0;
  Status deferred_error_;
};

/// Read-side handle; index and bloom are resident, blocks are read on demand.
///
/// The immutable part of an open table — its mapping (or descriptor), block
/// index and bloom filter — is shared by every handle NewReader() makes from
/// it. Each handle keeps only its own LRU of resident blocks and IO sink,
/// so one handle serves one thread at a time while distinct handles read
/// the same table concurrently without locks.
class SSTable {
 public:
  /// Opens the table, reading only its footer and metadata. `stats` (may be
  /// null) is the sink for later block reads; Open itself charges nothing.
  static Result<std::unique_ptr<SSTable>> Open(const std::string& path,
                                               uint64_t seq, IoStats* stats);

  SSTable(const SSTable&) = delete;
  SSTable& operator=(const SSTable&) = delete;

  /// Another handle on this table charging `stats`: no IO and no re-parse,
  /// just an empty block cache over the shared immutable state (which it
  /// co-owns, so it may outlive this handle). Same seq and tier.
  std::unique_ptr<SSTable> NewReader(IoStats* stats) const;

  /// Resolves the batch's pending keys against this table in one forward
  /// pass: one search of the block index for the first pending key, then
  /// forward steps through the blocks and their entries. Sets `found` and
  /// `values` for every pending key the table holds and returns how many.
  /// The bloom filter is probed only for a key whose block is not resident;
  /// `use_bloom = false` bypasses it (ablation benchmark). sstables_touched
  /// and bloom_negative count per key, as a lookup of each key alone would;
  /// a block the batch finds resident counts one pages_cached.
  Result<size_t> MultiGet(PointBatch* batch, bool use_bloom = true);

  /// Visits entries with lo <= key <= hi in key order.
  Status Scan(uint64_t lo, uint64_t hi,
              const std::function<void(uint64_t, const LsmValue&)>& fn);

  uint64_t min_key() const { return file_->min_key; }
  uint64_t max_key() const { return file_->max_key; }
  uint64_t num_entries() const { return file_->num_entries; }
  /// Monotone creation sequence number: larger = newer data.
  uint64_t seq() const { return seq_; }
  const std::string& path() const { return file_->path; }
  /// LSM tier this table lives in (0 = fresh flush, grows with compaction).
  /// Set by the store right after Open — the file format does not record it;
  /// the MANIFEST does. Drives the per-tier fan-out counters in IoStats.
  uint32_t tier() const { return tier_; }
  void set_tier(uint32_t tier) { tier_ = tier; }
  /// Redirects all future IO accounting to `stats` (which must outlive this
  /// table). The store's flush/compaction jobs open freshly built tables
  /// without a sink while the store mutex is dropped, then point the handle
  /// at the store's shared counters once they re-hold the lock.
  void set_io_sink(IoStats* stats) { stats_ = stats; }
  bool Overlaps(uint64_t lo, uint64_t hi) const {
    return num_entries() > 0 && lo <= max_key() && hi >= min_key();
  }

 private:
  struct IndexEntry {
    uint64_t first_key;
    uint64_t last_key;
    uint64_t offset;
    uint32_t count;
  };

  /// Immutable state of one open table file, parsed once by Open() and
  /// shared by all of its handles; the last owner unmaps and closes.
  struct File {
    File() = default;
    ~File();
    File(const File&) = delete;
    File& operator=(const File&) = delete;

    std::string path;
    int fd = -1;                 // blocks are pread from here when unmapped
    const char* map = nullptr;   // read-only mmap of the whole file
    size_t map_size = 0;
    std::vector<IndexEntry> index;
    BloomFilter bloom;
    uint64_t num_entries = 0;
    uint64_t min_key = 0;
    uint64_t max_key = 0;
  };

  SSTable(std::shared_ptr<const File> file, uint64_t seq, IoStats* stats)
      : file_(std::move(file)), seq_(seq), stats_(stats) {}

  /// Small per-handle LRU of resident block numbers (the HBase-block-cache
  /// analogue of the paper's LSMT engine). A mapped table's blocks are read
  /// where the mapping holds them, so a slot only marks its block resident;
  /// an unmapped table's slot owns the bytes pread for it. One snapshot
  /// tick spans a handful of blocks, and the pruned path reads the same
  /// ticks again for HWMT, the walks and validation, so a few resident
  /// blocks absorb most of those repeat reads. The LRU keeps pages_read,
  /// bytes_read, seeks and the bloom gating meaning what a block cache
  /// would make them mean.
  static constexpr size_t kCachedBlocks = 8;
  struct CachedBlock {
    int64_t index = -1;       // block number, -1 = empty slot
    uint64_t last_used = 0;   // LRU clock value
    std::vector<char> owned;  // the block's bytes when the file is unmapped
  };

  /// One block's packed 24-byte entries, wherever they are held.
  struct BlockRef {
    const char* data = nullptr;
    uint32_t count = 0;
  };

  /// Returns the cache slot holding block `b`, or nullptr on a miss.
  CachedBlock* FindCached(size_t b) {
    for (CachedBlock& cb : cache_) {
      if (cb.index == static_cast<int64_t>(b)) return &cb;
    }
    return nullptr;
  }

  /// The only block that can hold `key`: the first whose last key is
  /// >= `key`, or the block count if there is none.
  size_t BlockFor(uint64_t key) const;

  /// The entries of the resident block in `cb`.
  BlockRef Resident(const CachedBlock& cb) const;

  /// Cache-miss path: makes block `b` resident in the LRU slot, charging
  /// one page read. A mapped block stays in the read-only mapping of the
  /// immutable table file (no syscall, no copy); an unmapped one is pread
  /// on the shared descriptor into the slot's own buffer.
  Result<BlockRef> LoadBlock(size_t b);

  /// FindCached + LoadBlock, with hit/miss accounting.
  Result<BlockRef> GetBlock(size_t b);

  std::shared_ptr<const File> file_;
  CachedBlock cache_[kCachedBlocks];
  uint64_t cache_clock_ = 0;
  int64_t last_fetched_block_ = -2;  // -2: nothing fetched yet
  uint64_t seq_ = 0;
  uint32_t tier_ = 0;
  IoStats* stats_ = nullptr;

  /// Bumps `(*v)[tier_]`, growing the vector to cover this tier.
  void ChargeTier(std::vector<uint64_t>* v) const {
    if (v->size() <= tier_) v->resize(tier_ + 1, 0);
    ++(*v)[tier_];
  }
};

}  // namespace k2::lsm

#endif  // K2_STORAGE_LSM_SSTABLE_H_
