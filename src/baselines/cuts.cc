#include "baselines/cuts.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "baselines/sweep.h"
#include "baselines/trajectory.h"
#include "cluster/clusterer.h"
#include "cluster/dbscan.h"
#include "model/dataset.h"

namespace k2 {

namespace {

/// DBSCAN over objects of one frame using the polyline distance; returns the
/// ids of objects belonging to a cluster of size >= m. O(n^2) pairwise, as
/// in the original (trajectories per frame are few).
std::vector<ObjectId> FrameSurvivors(
    const std::vector<std::pair<ObjectId, std::vector<TrajPoint>>>& subs,
    double eps, int m) {
  const size_t n = subs.size();
  std::vector<std::vector<uint32_t>> neighbors(n);
  for (size_t i = 0; i < n; ++i) {
    neighbors[i].push_back(static_cast<uint32_t>(i));  // self
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (PolylineDistance(subs[i].second, subs[j].second) <= eps) {
        neighbors[i].push_back(static_cast<uint32_t>(j));
        neighbors[j].push_back(static_cast<uint32_t>(i));
      }
    }
  }
  // Density-connect: BFS from core polylines.
  std::vector<int32_t> label(n, -1);
  int32_t next_label = 0;
  std::vector<uint32_t> queue;
  for (size_t i = 0; i < n; ++i) {
    if (label[i] >= 0 || neighbors[i].size() < static_cast<size_t>(m)) continue;
    const int32_t cluster = next_label++;
    label[i] = cluster;
    queue.assign(neighbors[i].begin(), neighbors[i].end());
    for (size_t q = 0; q < queue.size(); ++q) {
      const uint32_t v = queue[q];
      if (label[v] < 0) {
        label[v] = cluster;
        if (neighbors[v].size() >= static_cast<size_t>(m)) {
          queue.insert(queue.end(), neighbors[v].begin(), neighbors[v].end());
        }
      }
    }
  }
  std::vector<size_t> cluster_size(next_label, 0);
  for (size_t i = 0; i < n; ++i) {
    if (label[i] >= 0) ++cluster_size[label[i]];
  }
  std::vector<ObjectId> survivors;
  for (size_t i = 0; i < n; ++i) {
    if (label[i] >= 0 && cluster_size[label[i]] >= static_cast<size_t>(m)) {
      survivors.push_back(subs[i].first);
    }
  }
  std::sort(survivors.begin(), survivors.end());
  return survivors;
}

}  // namespace

Result<std::vector<Convoy>> MineCuts(Store* store, const MiningParams& params,
                                     const CutsOptions& options,
                                     CutsStats* stats) {
  K2_RETURN_NOT_OK(ValidateMiningParams(params));
  K2_RETURN_NOT_OK(store->status());
  K2_RETURN_NOT_OK(ValidateTickRange(store->time_range(), params));
  CutsStats local;
  CutsStats* s = stats != nullptr ? stats : &local;
  const int lambda = options.lambda > 0 ? options.lambda : params.k;
  const double delta =
      options.dp_tolerance > 0.0 ? options.dp_tolerance : params.eps / 4.0;

  // Materialize trajectories (CuTS' trajectory-major access pattern: the
  // paper stresses that this cannot reuse DBSCAN's spatial index).
  Stopwatch sw;
  std::map<ObjectId, std::vector<TrajPoint>> trajectories;
  std::vector<SnapshotPoint> points;
  const TimeRange range = store->time_range();
  for (Timestamp t : store->timestamps()) {
    K2_RETURN_NOT_OK(store->ScanTimestamp(t, &points));
    for (const SnapshotPoint& p : points) {
      trajectories[p.oid].push_back(TrajPoint{t, p.x, p.y});
    }
  }
  std::map<ObjectId, std::vector<TrajPoint>> simplified;
  for (const auto& [oid, traj] : trajectories) {
    s->input_vertices += traj.size();
    simplified[oid] = DouglasPeucker(traj, delta);
    s->simplified_vertices += simplified[oid].size();
  }
  s->phases.Add("simplify", sw.ElapsedSeconds());

  // Filter: per λ-frame, cluster simplified sub-trajectories with the
  // inflated threshold; record the surviving objects of each frame.
  sw.Restart();
  const int64_t num_frames = (range.length() + lambda - 1) / lambda;
  std::vector<std::vector<ObjectId>> frame_survivors(
      static_cast<size_t>(num_frames));
  std::unordered_set<ObjectId> any_survivor;
  for (int64_t f = 0; f < num_frames; ++f) {
    const Timestamp fs = range.start + static_cast<Timestamp>(f * lambda);
    const Timestamp fe =
        std::min<Timestamp>(fs + lambda - 1, range.end);
    std::vector<std::pair<ObjectId, std::vector<TrajPoint>>> subs;
    for (const auto& [oid, traj] : simplified) {
      if (traj.empty() || traj.front().t > fe || traj.back().t < fs) continue;
      // Vertices inside the frame plus one bracketing vertex on each side:
      // a long straight leg may have no vertex inside the frame at all, yet
      // its segment still crosses it.
      auto lo_it = std::lower_bound(
          traj.begin(), traj.end(), fs,
          [](const TrajPoint& p, Timestamp t) { return p.t < t; });
      auto hi_it = std::upper_bound(
          traj.begin(), traj.end(), fe,
          [](Timestamp t, const TrajPoint& p) { return t < p.t; });
      if (lo_it != traj.begin()) --lo_it;
      if (hi_it != traj.end()) ++hi_it;
      subs.emplace_back(oid, std::vector<TrajPoint>(lo_it, hi_it));
    }
    frame_survivors[f] =
        FrameSurvivors(subs, params.eps + 2.0 * delta, params.m);
    for (ObjectId oid : frame_survivors[f]) any_survivor.insert(oid);
  }
  s->surviving_objects = any_survivor.size();
  s->phases.Add("filter", sw.ElapsedSeconds());

  // Refine: per-tick sweep over the frame's surviving objects only.
  sw.Restart();
  auto clusters_at = [&](Timestamp t, std::vector<ObjectSet>* out) -> Status {
    out->clear();
    const int64_t f = (t - range.start) / lambda;
    const std::vector<ObjectId>& survivors = frame_survivors[f];
    if (survivors.size() < static_cast<size_t>(params.m)) return Status::OK();
    std::vector<SnapshotPoint> pts;
    K2_RETURN_NOT_OK(
        store->GetPoints(t, ObjectSet::FromSorted(survivors), &pts));
    *out = Dbscan(pts, params.eps, params.m);
    return Status::OK();
  };
  SweepOptions sweep;
  sweep.min_length = params.k;
  auto result = MaximalConvoySweep(clusters_at, range, params.m, sweep);
  s->phases.Add("refine", sw.ElapsedSeconds());
  return result;
}

}  // namespace k2
