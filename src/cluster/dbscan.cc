#include "cluster/dbscan.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/simd.h"

namespace k2 {

namespace {

// Region query used below: grid-indexed for large snapshots, brute force
// for the tiny re-clusterings that dominate HWMT / extension / validation
// (rebuilding even a flat grid for 3-10 points costs more than scanning
// them).
constexpr size_t kBruteForceThreshold = 32;

// Brute-force region query over the scratch's SoA mirror, through the same
// dispatched eps-scan kernel as the grid path. The kernel needs room for
// all n candidates (compress-store slack), so the vector is grown to the
// upper bound and trimmed to the matches written.
void BruteForceNeighbors(const DbscanScratch& scratch, double qx, double qy,
                         double eps, std::vector<uint32_t>* out) {
  const size_t n = scratch.bf_ids.size();
  const size_t written = out->size();
  out->resize(written + n);
  const size_t cnt = simd::Active().eps_scan(
      scratch.bf_xs.data(), scratch.bf_ys.data(), scratch.bf_ids.data(), n,
      qx, qy, eps * eps, out->data() + written);
  out->resize(written + cnt);
}

DbscanScratch* ThreadLocalScratch() {
  static thread_local DbscanScratch scratch;
  return &scratch;
}

// Shared worker: labels every point into scratch->labels (reused storage).
void RunDbscan(std::span<const SnapshotPoint> points, double eps, int min_pts,
               DbscanScratch* scratch, DbscanLabels* out) {
  const size_t n = points.size();
  out->label.assign(n, -1);
  out->num_clusters = 0;
  if (n == 0 || min_pts <= 0) return;

  const bool use_grid = n > kBruteForceThreshold;
  if (use_grid) {
    // Cell size = eps keeps every eps region query inside the GridIndex
    // contract (queries are only valid for eps <= the Build() cell size).
    scratch->grid.Build(points, eps);
  } else {
    scratch->bf_xs.resize(n);
    scratch->bf_ys.resize(n);
    scratch->bf_ids.resize(n);
    for (size_t j = 0; j < n; ++j) {
      scratch->bf_xs[j] = points[j].x;
      scratch->bf_ys[j] = points[j].y;
      scratch->bf_ids[j] = static_cast<uint32_t>(j);
    }
  }
  auto region_query = [&](size_t i, std::vector<uint32_t>* nbrs) {
    nbrs->clear();
    if (use_grid) {
      scratch->grid.Neighbors(i, eps, nbrs);
    } else {
      BruteForceNeighbors(*scratch, points[i].x, points[i].y, eps, nbrs);
    }
  };

  scratch->visited.assign(n, 0);
  std::vector<uint32_t>& neighbors = scratch->neighbors;
  std::vector<uint32_t>& seeds = scratch->seeds;

  for (size_t i = 0; i < n; ++i) {
    if (scratch->visited[i]) continue;
    scratch->visited[i] = 1;
    region_query(i, &neighbors);
    if (neighbors.size() < static_cast<size_t>(min_pts)) continue;  // noise or border

    const int32_t cluster = out->num_clusters++;
    out->label[i] = cluster;
    seeds.assign(neighbors.begin(), neighbors.end());
    // ExpandCluster, one seed at a time in queue order: a seed joins this
    // cluster unless an earlier cluster already holds it (a border point
    // goes to the first cluster that reaches it), and a seed visited for
    // the first time is queried and, if core, enqueues its neighbours.
    for (size_t s = 0; s < seeds.size(); ++s) {
      const uint32_t j = seeds[s];
      if (out->label[j] < 0) out->label[j] = cluster;
      if (scratch->visited[j]) continue;
      scratch->visited[j] = 1;
      region_query(j, &neighbors);
      if (neighbors.size() >= static_cast<size_t>(min_pts)) {
        seeds.insert(seeds.end(), neighbors.begin(), neighbors.end());
      }
    }
  }
}

std::vector<ObjectSet> LabelsToClusters(std::span<const SnapshotPoint> points,
                                        const DbscanLabels& labels,
                                        int min_pts, DbscanScratch* scratch) {
  const size_t k = static_cast<size_t>(labels.num_clusters);
  std::vector<std::vector<ObjectId>>& members = scratch->members;
  if (members.size() < k) members.resize(k);
  for (size_t c = 0; c < k; ++c) members[c].clear();
  for (size_t i = 0; i < points.size(); ++i) {
    if (labels.label[i] >= 0) {
      members[labels.label[i]].push_back(points[i].oid);
    }
  }
  std::vector<ObjectSet> clusters;
  clusters.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    if (members[c].size() < static_cast<size_t>(min_pts)) continue;
    clusters.emplace_back(members[c]);
  }
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

}  // namespace

std::vector<ObjectSet> Dbscan(std::span<const SnapshotPoint> points,
                              double eps, int min_pts,
                              DbscanScratch* scratch) {
  RunDbscan(points, eps, min_pts, scratch, &scratch->labels);
  return LabelsToClusters(points, scratch->labels, min_pts, scratch);
}

std::vector<ObjectSet> Dbscan(std::span<const SnapshotPoint> points,
                              double eps, int min_pts) {
  return Dbscan(points, eps, min_pts, ThreadLocalScratch());
}

bool IsOneDbscanCluster(std::span<const SnapshotPoint> points, double eps,
                        int min_pts) {
  const size_t n = points.size();
  if (min_pts <= 0 || n < static_cast<size_t>(min_pts) ||
      n > kOneClusterMaxPoints) {
    return false;
  }
  // nbr[i]: bit j set iff j is in i's eps-neighbourhood (self included),
  // by eps_scan's expression for query i. Branch-free: the answers are
  // data-dependent, and a mispredicted branch costs more than the pair.
  const double eps2 = eps * eps;
  uint64_t nbr[kOneClusterMaxPoints];
  for (size_t i = 0; i < n; ++i) {
    uint64_t row = 0;
    for (size_t j = 0; j < n; ++j) {
      const double dx = points[j].x - points[i].x;
      const double dy = points[j].y - points[i].y;
      row |= uint64_t{dx * dx + dy * dy <= eps2} << j;
    }
    nbr[i] = row;
  }
  uint64_t core = 0;
  for (size_t i = 0; i < n; ++i) {
    if (std::popcount(nbr[i]) >= min_pts) core |= uint64_t{1} << i;
  }
  if (core == 0) return false;
  // Closure from the lowest core point, the one DBSCAN starts its first
  // cluster from: core points expand, border points only join.
  uint64_t expanded = 0;
  uint64_t reached = core & -core;
  for (uint64_t frontier = reached; frontier != 0;
       frontier = reached & core & ~expanded) {
    const uint64_t bit = frontier & -frontier;
    expanded |= bit;
    reached |= nbr[std::countr_zero(bit)];
  }
  const uint64_t all = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  return reached == all;
}

void DbscanLabelled(std::span<const SnapshotPoint> points, double eps,
                    int min_pts, DbscanScratch* scratch, DbscanLabels* out) {
  RunDbscan(points, eps, min_pts, scratch, out);
}

DbscanLabels DbscanLabelled(std::span<const SnapshotPoint> points, double eps,
                            int min_pts) {
  DbscanLabels out;
  RunDbscan(points, eps, min_pts, ThreadLocalScratch(), &out);
  return out;
}

}  // namespace k2
