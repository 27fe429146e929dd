#include "storage/bptree_store.h"

#include "storage/key.h"

namespace k2 {

namespace {

// Read path shared by the store and its snapshots: serve tick `t` from the
// in-memory delta when it is newer than everything in the tree, else from
// the tree. Appends are time-ordered, so base and delta never share a tick.

bool TickInDelta(const BPlusTree& tree, TimeRange tree_range, Timestamp t) {
  return tree.num_records() == 0 || t > tree_range.end;
}

Status ScanDeltaMain(BPlusTree* tree, const Dataset& delta,
                     TimeRange tree_range, Timestamp t,
                     std::vector<SnapshotPoint>* out, IoStats* stats) {
  out->clear();
  ++stats->snapshot_scans;
  if (TickInDelta(*tree, tree_range, t)) {
    const auto snap = delta.Snapshot(t);
    out->reserve(snap.size());
    for (const PointRecord& rec : snap) {
      out->push_back(SnapshotPoint{rec.oid, rec.x, rec.y});
    }
    stats->scanned_points += out->size();
    stats->bytes_read += snap.size_bytes();
    return Status::OK();
  }
  K2_RETURN_NOT_OK(tree->ScanRange(
      MinKeyOf(t), MaxKeyOf(t), [&](uint64_t key, const BPTreeValue& v) {
        out->push_back(SnapshotPoint{KeyOid(key), v.x, v.y});
      }));
  stats->scanned_points += out->size();
  return Status::OK();
}

Status GetDeltaMainPoints(BPlusTree* tree, const Dataset& delta,
                          TimeRange tree_range, Timestamp t,
                          const ObjectSet& objects,
                          std::vector<SnapshotPoint>* out, IoStats* stats) {
  out->clear();
  ++stats->point_fetches;
  stats->point_queries += objects.size();
  if (TickInDelta(*tree, tree_range, t)) {
    const size_t hits = SelectObjects(delta.Snapshot(t), objects, out);
    stats->point_hits += hits;
    stats->bytes_read += hits * sizeof(PointRecord);
    return Status::OK();
  }
  for (ObjectId oid : objects) {
    BPTreeValue v;
    bool found = false;
    K2_RETURN_NOT_OK(tree->Get(MakeKey(t, oid), &v, &found));
    if (found) out->push_back(SnapshotPoint{oid, v.x, v.y});
  }
  stats->point_hits += out->size();
  return Status::OK();
}

/// Read-only view: a private replica of the tree (own pager, buffer pool,
/// IO accounting) plus a borrowed pointer to the parent's immutable delta.
class BPTreeReadSnapshot final : public Store {
 public:
  BPTreeReadSnapshot(const std::string& path, size_t pool_pages,
                     const Dataset* delta, std::vector<Timestamp> timestamps,
                     TimeRange tree_range, TimeRange time_range)
      : tree_(path, pool_pages, &io_stats_),
        delta_(delta),
        timestamps_(std::move(timestamps)),
        tree_range_(tree_range),
        time_range_(time_range) {}

  /// Opens the replica; skipped when the source tree holds no records (a
  /// pure-delta store has no tree file to open, and every read routes to
  /// the delta anyway).
  Status Init(const BPlusTree& source) {
    if (source.num_records() == 0) return Status::OK();
    return tree_.OpenReadReplicaOf(source);
  }

  std::string name() const override { return "rdbms"; }
  Status BulkLoad(const Dataset&) override {
    return Status::Invalid("read snapshot of rdbms is read-only");
  }
  Status Append(Timestamp, const std::vector<SnapshotPoint>&) override {
    return Status::Invalid("read snapshot of rdbms is read-only");
  }
  Status ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) override {
    return ScanDeltaMain(&tree_, *delta_, tree_range_, t, out, &io_stats_);
  }
  Status GetPoints(Timestamp t, const ObjectSet& objects,
                   std::vector<SnapshotPoint>* out) override {
    return GetDeltaMainPoints(&tree_, *delta_, tree_range_, t, objects, out,
                              &io_stats_);
  }
  TimeRange time_range() const override { return time_range_; }
  const std::vector<Timestamp>& timestamps() const override {
    return timestamps_;
  }
  uint64_t num_points() const override {
    return tree_.num_records() + delta_->num_points();
  }

 private:
  BPlusTree tree_;
  const Dataset* delta_;
  std::vector<Timestamp> timestamps_;
  TimeRange tree_range_;
  TimeRange time_range_;
};

}  // namespace

BPlusTreeStore::BPlusTreeStore(std::string path, size_t buffer_pool_pages)
    : tree_(std::move(path), buffer_pool_pages, &io_stats_),
      buffer_pool_pages_(buffer_pool_pages) {}

Status BPlusTreeStore::BulkLoad(const Dataset& dataset) {
  K2_RETURN_NOT_OK(tree_.BuildFrom(dataset));
  delta_ = Dataset();
  timestamps_ = dataset.timestamps();
  tree_range_ = dataset.time_range();
  time_range_ = tree_range_;
  io_stats_.Clear();
  return Status::OK();
}

Status BPlusTreeStore::Append(Timestamp t,
                              const std::vector<SnapshotPoint>& points) {
  K2_RETURN_NOT_OK(CheckAppend(t, points));
  if (points.empty()) return Status::OK();
  K2_RETURN_NOT_OK(delta_.AppendSnapshot(t, points));
  timestamps_.push_back(t);
  if (time_range_.empty()) time_range_.start = t;
  time_range_.end = t;
  return Status::OK();
}

Status BPlusTreeStore::ScanTimestamp(Timestamp t,
                                     std::vector<SnapshotPoint>* out) {
  return ScanDeltaMain(&tree_, delta_, tree_range_, t, out, &io_stats_);
}

Status BPlusTreeStore::GetPoints(Timestamp t, const ObjectSet& objects,
                                 std::vector<SnapshotPoint>* out) {
  return GetDeltaMainPoints(&tree_, delta_, tree_range_, t, objects, out,
                            &io_stats_);
}

Result<std::unique_ptr<Store>> BPlusTreeStore::CreateReadSnapshot() {
  // Same buffer-pool budget as the parent: each snapshot's working set
  // mirrors the parent's, and total snapshot memory stays bounded.
  auto snapshot = std::make_unique<BPTreeReadSnapshot>(
      tree_.path(), buffer_pool_pages_, &delta_, timestamps_, tree_range_,
      time_range_);
  K2_RETURN_NOT_OK(snapshot->Init(tree_));
  return std::unique_ptr<Store>(std::move(snapshot));
}

}  // namespace k2
