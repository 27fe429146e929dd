#include "model/dataset.h"

#include <algorithm>
#include <sstream>

namespace k2 {

std::span<const PointRecord> Dataset::Snapshot(Timestamp t) const {
  auto it = std::lower_bound(timestamps_.begin(), timestamps_.end(), t);
  if (it == timestamps_.end() || *it != t) return {};
  size_t i = static_cast<size_t>(it - timestamps_.begin());
  return std::span<const PointRecord>(records_.data() + extents_[i],
                                      extents_[i + 1] - extents_[i]);
}

const PointRecord* Dataset::Find(Timestamp t, ObjectId oid) const {
  auto snap = Snapshot(t);
  auto it = std::lower_bound(
      snap.begin(), snap.end(), oid,
      [](const PointRecord& r, ObjectId o) { return r.oid < o; });
  if (it == snap.end() || it->oid != oid) return nullptr;
  return &*it;
}

size_t SelectObjects(std::span<const PointRecord> tick,
                     const ObjectSet& objects,
                     std::vector<SnapshotPoint>* out) {
  const size_t before = out->size();
  const size_t n = tick.size();
  size_t lo = 0;  // every record before lo has an oid below the next wanted
  for (ObjectId oid : objects) {
    // Step to a bound `hi` whose record is >= oid, doubling the stride,
    // then binary-search the last stride.
    size_t hi = lo;
    for (size_t stride = 1; hi < n && tick[hi].oid < oid; stride *= 2) {
      lo = hi + 1;
      hi += stride;
    }
    const auto it = std::lower_bound(
        tick.begin() + lo, tick.begin() + std::min(hi, n), oid,
        [](const PointRecord& r, ObjectId o) { return r.oid < o; });
    lo = static_cast<size_t>(it - tick.begin());
    if (lo == n) break;
    if (tick[lo].oid == oid) {
      out->push_back(SnapshotPoint{oid, tick[lo].x, tick[lo].y});
      ++lo;
    }
  }
  return out->size() - before;
}

Status Dataset::AppendSnapshot(Timestamp t,
                               const std::vector<SnapshotPoint>& points) {
  if (points.empty()) return Status::OK();
  if (!records_.empty() && t <= time_range_.end) {
    return Status::Invalid("AppendSnapshot tick " + std::to_string(t) +
                           " is not past the dataset end " +
                           std::to_string(time_range_.end));
  }
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].oid <= points[i - 1].oid) {
      return Status::Invalid(
          "AppendSnapshot points must be sorted by oid and duplicate-free");
    }
  }
  // The trailing extent entry (== records_.size()) becomes the start of the
  // new tick's extent; a default-constructed dataset does not have it yet.
  if (extents_.empty()) extents_.push_back(0);
  timestamps_.push_back(t);
  // No exact-size reserve here: push_back's geometric growth keeps a long
  // append stream linear instead of reallocating the whole array per tick.
  for (const SnapshotPoint& p : points) {
    records_.push_back(PointRecord{t, p.oid, p.x, p.y});
    object_ids_.insert(p.oid);
  }
  extents_.push_back(records_.size());
  time_range_ = {timestamps_.front(), t};
  return Status::OK();
}

std::vector<SnapshotPoint> SnapshotPoints(const Dataset& dataset,
                                          Timestamp t) {
  const auto snap = dataset.Snapshot(t);
  std::vector<SnapshotPoint> points;
  points.reserve(snap.size());
  for (const PointRecord& rec : snap) {
    points.push_back(SnapshotPoint{rec.oid, rec.x, rec.y});
  }
  return points;
}

std::string Dataset::DebugString() const {
  std::ostringstream os;
  os << "Dataset{points=" << num_points() << ", objects=" << num_objects()
     << ", ticks=[" << time_range_.start << ", " << time_range_.end << "]}";
  return os.str();
}

Dataset DatasetBuilder::Build() {
  Dataset ds;
  std::stable_sort(rows_.begin(), rows_.end(), RecordKeyLess);
  rows_.erase(std::unique(rows_.begin(), rows_.end(),
                          [](const PointRecord& a, const PointRecord& b) {
                            return a.t == b.t && a.oid == b.oid;
                          }),
              rows_.end());
  ds.records_ = std::move(rows_);
  rows_.clear();

  for (size_t i = 0; i < ds.records_.size(); ++i) {
    const PointRecord& rec = ds.records_[i];
    if (i == 0 || rec.t != ds.records_[i - 1].t) {
      ds.timestamps_.push_back(rec.t);
      ds.extents_.push_back(i);
    }
    ds.object_ids_.insert(rec.oid);
  }
  ds.extents_.push_back(ds.records_.size());
  if (!ds.records_.empty()) {
    ds.time_range_ = {ds.timestamps_.front(), ds.timestamps_.back()};
  }
  return ds;
}

}  // namespace k2
