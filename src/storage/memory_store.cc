#include "storage/memory_store.h"

namespace k2 {

namespace {

// Read path shared by the store and its snapshots: both serve queries from
// an immutable Dataset, differing only in which IoStats they charge.
Status ScanDataset(const Dataset& dataset, Timestamp t,
                   std::vector<SnapshotPoint>* out, IoStats* stats) {
  out->clear();
  auto snap = dataset.Snapshot(t);
  out->reserve(snap.size());
  for (const PointRecord& rec : snap) {
    out->push_back(SnapshotPoint{rec.oid, rec.x, rec.y});
  }
  ++stats->snapshot_scans;
  stats->scanned_points += out->size();
  stats->bytes_read += snap.size_bytes();
  return Status::OK();
}

Status GetDatasetPoints(const Dataset& dataset, Timestamp t,
                        const ObjectSet& objects,
                        std::vector<SnapshotPoint>* out, IoStats* stats) {
  out->clear();
  ++stats->point_fetches;
  stats->point_queries += objects.size();
  const size_t hits = SelectObjects(dataset.Snapshot(t), objects, out);
  stats->point_hits += hits;
  stats->bytes_read += hits * sizeof(PointRecord);
  return Status::OK();
}

/// Read-only view over the parent's Dataset. The dataset is immutable while
/// snapshots exist (the CreateReadSnapshot contract), so handles share it by
/// pointer and each keeps private IoStats — zero shared mutable state.
class MemorySnapshotStore final : public Store {
 public:
  explicit MemorySnapshotStore(const Dataset* dataset) : dataset_(dataset) {}

  std::string name() const override { return "memory"; }
  Status BulkLoad(const Dataset&) override {
    return Status::Invalid("read snapshot of memory is read-only");
  }
  Status Append(Timestamp, const std::vector<SnapshotPoint>&) override {
    return Status::Invalid("read snapshot of memory is read-only");
  }
  Status ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) override {
    return ScanDataset(*dataset_, t, out, &io_stats_);
  }
  Status GetPoints(Timestamp t, const ObjectSet& objects,
                   std::vector<SnapshotPoint>* out) override {
    return GetDatasetPoints(*dataset_, t, objects, out, &io_stats_);
  }
  TimeRange time_range() const override { return dataset_->time_range(); }
  const std::vector<Timestamp>& timestamps() const override {
    return dataset_->timestamps();
  }
  uint64_t num_points() const override { return dataset_->num_points(); }

 private:
  const Dataset* dataset_;
};

}  // namespace

MemoryStore::MemoryStore(Dataset dataset) : dataset_(std::move(dataset)) {}

Status MemoryStore::BulkLoad(const Dataset& dataset) {
  dataset_ = dataset;
  io_stats_.Clear();
  return Status::OK();
}

Status MemoryStore::Append(Timestamp t,
                           const std::vector<SnapshotPoint>& points) {
  K2_RETURN_NOT_OK(CheckAppend(t, points));
  return dataset_.AppendSnapshot(t, points);
}

Status MemoryStore::ScanTimestamp(Timestamp t,
                                  std::vector<SnapshotPoint>* out) {
  return ScanDataset(dataset_, t, out, &io_stats_);
}

Status MemoryStore::GetPoints(Timestamp t, const ObjectSet& objects,
                              std::vector<SnapshotPoint>* out) {
  return GetDatasetPoints(dataset_, t, objects, out, &io_stats_);
}

Result<std::unique_ptr<Store>> MemoryStore::CreateReadSnapshot() {
  return std::unique_ptr<Store>(new MemorySnapshotStore(&dataset_));
}

}  // namespace k2
