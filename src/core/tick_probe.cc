#include "core/tick_probe.h"

#include <algorithm>

#include "cluster/store_clustering.h"
#include "common/check.h"

namespace k2 {

Status FetchedTick::Fetch(Store* store, Timestamp t,
                          const ObjectSet& objects) {
  store_ = store;
  tick_ = t;
  objects_ = &objects;
  return store_->GetPoints(t, objects, &points_);
}

std::string FetchedTick::name() const { return store_->name(); }

Status FetchedTick::BulkLoad(const Dataset&) {
  return Status::Invalid("a fetched tick is read-only");
}

Status FetchedTick::ScanTimestamp(Timestamp t,
                                  std::vector<SnapshotPoint>* out) {
  return store_->ScanTimestamp(t, out);
}

Status FetchedTick::GetPoints(Timestamp t, const ObjectSet& objects,
                              std::vector<SnapshotPoint>* out) {
  if (t != tick_) return store_->GetPoints(t, objects, out);
  K2_DCHECK(std::includes(objects_->begin(), objects_->end(), objects.begin(),
                          objects.end()));
  out->clear();
  auto it = points_.begin();
  for (ObjectId oid : objects) {
    it = std::lower_bound(
        it, points_.end(), oid,
        [](const SnapshotPoint& p, ObjectId o) { return p.oid < o; });
    if (it == points_.end()) break;
    if (it->oid == oid) out->push_back(*it++);
  }
  return Status::OK();
}

TimeRange FetchedTick::time_range() const { return store_->time_range(); }

const std::vector<Timestamp>& FetchedTick::timestamps() const {
  return store_->timestamps();
}

uint64_t FetchedTick::num_points() const { return store_->num_points(); }

bool Proves(std::span<const TimeRange> proven, Timestamp t) {
  const auto it = std::upper_bound(
      proven.begin(), proven.end(), t,
      [](Timestamp tick, const TimeRange& r) { return tick < r.start; });
  return it != proven.begin() && std::prev(it)->end >= t;
}

Status TickProbe::Run(Store* store, Timestamp t, std::span<const Ask> asks,
                      const MiningParams& params, SnapshotScratch* scratch,
                      std::span<Answer> answers) {
  K2_DCHECK(answers.size() == asks.size());
  unproven_.clear();
  for (size_t i = 0; i < asks.size(); ++i) {
    if (Proves(asks[i].proven, t)) {
      answers[i].whole = true;
      answers[i].clusters.clear();
    } else {
      unproven_.push_back(i);
    }
  }
  if (unproven_.empty()) return Status::OK();
  // One set is its own union: ReCluster reads it from the store directly.
  Store* source = store;
  if (unproven_.size() > 1) {
    // Walks and HWMT windows mostly ask the same sets tick after tick;
    // comparing the ids is cheaper than sorting them into a union again.
    ids_.clear();
    for (size_t i : unproven_) {
      ids_.insert(ids_.end(), asks[i].objects->begin(),
                  asks[i].objects->end());
    }
    if (ids_ != union_of_) {
      union_of_.swap(ids_);
      union_ = ObjectSet(union_of_);
    }
    K2_RETURN_NOT_OK(view_.Fetch(store, t, union_));
    source = &view_;
  }
  for (size_t i : unproven_) {
    const ObjectSet& objects = *asks[i].objects;
    K2_ASSIGN_OR_RETURN(std::vector<ObjectSet> clusters,
                        ReCluster(source, t, objects, params, scratch));
    // Clusters are subsets of the set re-clustered, so one of equal size
    // is the set itself.
    Answer& answer = answers[i];
    answer.whole = clusters.size() == 1 && clusters[0].size() == objects.size();
    if (answer.whole) {
      answer.clusters.clear();
    } else {
      answer.clusters = std::move(clusters);
    }
  }
  return Status::OK();
}

}  // namespace k2
