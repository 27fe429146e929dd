// Relational-style store ("k2-RDBMS"): rows clustered in a disk B+-tree on
// the composite key (t, oid). Snapshot scans are leaf-chain range scans;
// point reads are index descents, mostly served from the buffer pool.
//
// The tree itself is bulk-built and read-only; Append() lands in an
// in-memory delta of strictly-newer ticks (the write-optimized side of a
// read-optimized base, as in any delta-main design). Because appends are
// time-ordered, base and delta never share a tick, so each read is served
// entirely by one side.
#ifndef K2_STORAGE_BPTREE_STORE_H_
#define K2_STORAGE_BPTREE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/bptree/bptree.h"
#include "storage/store.h"

namespace k2 {

class BPlusTreeStore final : public Store {
 public:
  /// Tree file lives at `path`; `buffer_pool_pages` bounds cache memory.
  explicit BPlusTreeStore(std::string path, size_t buffer_pool_pages = 256);

  std::string name() const override { return "rdbms"; }
  Status BulkLoad(const Dataset& dataset) override;
  Status Append(Timestamp t, const std::vector<SnapshotPoint>& points) override;
  Status ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) override;
  Status GetPoints(Timestamp t, const ObjectSet& objects,
                   std::vector<SnapshotPoint>* out) override;
  TimeRange time_range() const override { return time_range_; }
  const std::vector<Timestamp>& timestamps() const override {
    return timestamps_;
  }
  uint64_t num_points() const override {
    return tree_.num_records() + delta_.num_points();
  }

  /// Native snapshot: a read replica of the tree file with its own pager
  /// and buffer pool (see BPlusTree::OpenReadReplicaOf); the append delta
  /// is shared read-only.
  Result<std::unique_ptr<Store>> CreateReadSnapshot() override;

  BPlusTree& tree() { return tree_; }
  /// Appended rows not yet in the tree.
  uint64_t delta_points() const { return delta_.num_points(); }

 private:
  BPlusTree tree_;
  size_t buffer_pool_pages_;  ///< replicated into read snapshots
  Dataset delta_;
  std::vector<Timestamp> timestamps_;
  TimeRange tree_range_{0, -1};  ///< tick range covered by the tree
  TimeRange time_range_{0, -1};  ///< tree plus delta
};

}  // namespace k2

#endif  // K2_STORAGE_BPTREE_STORE_H_
