// In-memory canonical representation of a movement dataset: records sorted
// by the composite key (t, oid) with a per-timestamp extent directory, so a
// snapshot (all objects at one tick, paper Sec. 3.2) is an O(1) slice.
#ifndef K2_MODEL_DATASET_H_
#define K2_MODEL_DATASET_H_

#include <cstddef>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/object_set.h"
#include "common/status.h"
#include "common/types.h"

namespace k2 {

/// Time-ordered movement dataset. Immutable except for AppendSnapshot,
/// which grows the dataset at the time frontier without disturbing any
/// existing record (the streaming ingest path).
class Dataset {
 public:
  Dataset() = default;

  /// Records in (t, oid) order.
  const std::vector<PointRecord>& records() const { return records_; }
  size_t num_points() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Number of distinct object ids.
  size_t num_objects() const { return object_ids_.size(); }

  /// Inclusive tick range covered by the data; empty range when no records.
  TimeRange time_range() const { return time_range_; }

  /// Distinct timestamps that actually carry data, ascending.
  const std::vector<Timestamp>& timestamps() const { return timestamps_; }

  /// All records at tick `t`; empty span when the tick carries no data.
  std::span<const PointRecord> Snapshot(Timestamp t) const;

  /// Position of object `oid` at tick `t`, or nullptr when absent.
  const PointRecord* Find(Timestamp t, ObjectId oid) const;

  /// Appends one complete snapshot at tick `t`, which must be strictly
  /// greater than time_range().end; `points` must be sorted by oid and
  /// duplicate-free. Empty snapshots are a no-op (a tick without data is
  /// not part of the dataset). All invariants (extent directory, object
  /// count, time range) are maintained incrementally.
  Status AppendSnapshot(Timestamp t,
                        const std::vector<SnapshotPoint>& points);

  /// One-line summary: points, objects, tick range.
  std::string DebugString() const;

 private:
  friend class DatasetBuilder;

  std::vector<PointRecord> records_;
  // extent_[i] = first record index of timestamps_[i]; extent_ has one extra
  // trailing entry equal to records_.size().
  std::vector<size_t> extents_;
  std::vector<Timestamp> timestamps_;
  std::unordered_set<ObjectId> object_ids_;
  TimeRange time_range_{0, -1};
};

/// Sorted select over one tick's oid-sorted records (a Dataset::Snapshot or
/// a tick extent read from disk): appends the records whose oid is in
/// `objects` to `*out`, in oid order, and returns how many it appended.
/// Each lookup gallops forward from the previous match, so a dense batch
/// costs O(|tick|) and a sparse one O(|objects| · log |tick|).
size_t SelectObjects(std::span<const PointRecord> tick,
                     const ObjectSet& objects,
                     std::vector<SnapshotPoint>* out);

/// The snapshot of `dataset` at tick `t` as the oid-sorted SnapshotPoint
/// vector Store::Append expects — the bridge from a materialized dataset to
/// the streaming ingest path.
std::vector<SnapshotPoint> SnapshotPoints(const Dataset& dataset, Timestamp t);

/// Accumulates rows in any order and finalizes them into a Dataset.
class DatasetBuilder {
 public:
  void Add(Timestamp t, ObjectId oid, double x, double y) {
    rows_.push_back(PointRecord{t, oid, x, y});
  }
  void Add(const PointRecord& rec) { rows_.push_back(rec); }

  void Reserve(size_t n) { rows_.reserve(n); }
  size_t size() const { return rows_.size(); }

  /// Sorts by (t, oid), drops duplicate (t, oid) keys (keeping the first
  /// occurrence), builds the extent directory, and returns the dataset.
  /// The builder is left empty.
  Dataset Build();

 private:
  std::vector<PointRecord> rows_;
};

}  // namespace k2

#endif  // K2_MODEL_DATASET_H_
