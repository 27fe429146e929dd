#include "baselines/sweep.h"

#include <algorithm>
#include <limits>
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

namespace {

// The sweep over `range`: folds the clusters of every tick t that
// next_tick yields (next_tick(t) is the first tick >= t to consult, past
// range.end when none is left), and one empty cluster set at the first
// tick of each run of ticks it skips. That fold ends every candidate as
// the run's empty ticks would, and leaves none for the rest of the run.
template <typename NextTick>
Result<std::vector<Convoy>> Sweep(const ClustersAtFn& clusters_at,
                                  NextTick next_tick, TimeRange range, int m,
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
  auto fold = [&](Timestamp now) {
    FoldCandidates(&active, clusters, m, now,
                   [&](const ObjectSet& set, Timestamp start) {
                     Convoy v(set, start, now - 1);
                     if (keep(v)) emitted.push_back(std::move(v));
                   });
  };

  // Ticks are 64-bit here so that a range ending at the largest Timestamp
  // terminates.
  int64_t unfolded = range.start;  // the first tick not folded yet
  for (int64_t t = next_tick(range.start); t <= range.end;
       t = next_tick(t + 1)) {
    clusters.clear();
    if (t > unfolded) fold(static_cast<Timestamp>(unfolded));
    K2_RETURN_NOT_OK(clusters_at(static_cast<Timestamp>(t), &clusters));
    fold(static_cast<Timestamp>(t));
    unfolded = t + 1;
  }
  clusters.clear();
  if (unfolded <= range.end) fold(static_cast<Timestamp>(unfolded));
  for (auto& [set, start] : active) {
    Convoy v(set, start, range.end);
    if (keep(v)) emitted.push_back(std::move(v));
  }
  return FilterMaximal(std::move(emitted));
}

}  // namespace

Result<std::vector<Convoy>> MaximalConvoySweep(const ClustersAtFn& clusters_at,
                                               TimeRange range, int m,
                                               const SweepOptions& options) {
  return Sweep(
      clusters_at, [](int64_t t) { return t; }, range, m, options);
}

Result<std::vector<Convoy>> MaximalConvoySweep(const ClustersAtFn& clusters_at,
                                               std::span<const Timestamp> ticks,
                                               TimeRange range, int m,
                                               const SweepOptions& options) {
  auto it = std::ranges::lower_bound(ticks, range.start);
  const auto next_tick = [&it, &ticks](int64_t t) {
    while (it != ticks.end() && *it < t) ++it;
    return it == ticks.end() ? std::numeric_limits<int64_t>::max()
                             : int64_t{*it};
  };
  return Sweep(clusters_at, next_tick, range, m, options);
}

}  // namespace k2
