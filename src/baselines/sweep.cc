#include "baselines/sweep.h"

#include <utility>

#include "cluster/dbscan.h"
#include "model/dataset.h"

namespace k2 {

ClustersAtFn DatasetClustersFn(const Dataset* dataset,
                               const MiningParams& params) {
  return [dataset, params](Timestamp t, std::vector<ObjectSet>* out) -> Status {
    std::vector<SnapshotPoint> points;
    for (const PointRecord& rec : dataset->Snapshot(t)) {
      points.push_back(SnapshotPoint{rec.oid, rec.x, rec.y});
    }
    *out = Dbscan(points, params.eps, params.m);
    return Status::OK();
  };
}

namespace {

void AddCandidate(CandidateMap* map, ObjectSet set, Timestamp start) {
  auto [it, inserted] = map->try_emplace(std::move(set), start);
  if (!inserted && start < it->second) it->second = start;
}

}  // namespace

void FoldCandidates(
    CandidateMap* active, const std::vector<ObjectSet>& clusters, int m,
    Timestamp now,
    const std::function<void(const ObjectSet& set, Timestamp start)>& died) {
  CandidateMap next;
  for (const auto& [set, start] : *active) {
    bool fully_extended = false;
    for (const ObjectSet& c : clusters) {
      ObjectSet x = ObjectSet::Intersect(set, c);
      if (x.size() < static_cast<size_t>(m)) continue;
      if (x == set) fully_extended = true;
      AddCandidate(&next, std::move(x), start);
    }
    if (!fully_extended) died(set, start);
  }
  // Corrected candidate maintenance: every cluster opens a candidate, even
  // when it extended an existing one. Guard against callers handing in
  // sub-(m,eps)-clusters — Def. 2 requires size >= m.
  for (const ObjectSet& c : clusters) {
    if (c.size() >= static_cast<size_t>(m)) AddCandidate(&next, c, now);
  }
  *active = std::move(next);
}

Result<std::vector<Convoy>> MaximalConvoySweep(const ClustersAtFn& clusters_at,
                                               TimeRange range, int m,
                                               const SweepOptions& options) {
  std::vector<Convoy> emitted;
  CandidateMap active;
  std::vector<ObjectSet> clusters;

  auto keep = [&](const Convoy& v) {
    if (v.length() >= options.min_length) return true;
    if (options.keep_left_border && v.start == range.start) return true;
    if (options.keep_right_border && v.end == range.end) return true;
    return false;
  };

  for (Timestamp t = range.start; t <= range.end; ++t) {
    clusters.clear();
    K2_RETURN_NOT_OK(clusters_at(t, &clusters));
    FoldCandidates(&active, clusters, m, t,
                   [&](const ObjectSet& set, Timestamp start) {
                     Convoy v(set, start, t - 1);
                     if (keep(v)) emitted.push_back(std::move(v));
                   });
  }
  for (auto& [set, start] : active) {
    Convoy v(set, start, range.end);
    if (keep(v)) emitted.push_back(std::move(v));
  }
  return FilterMaximal(std::move(emitted));
}

}  // namespace k2
