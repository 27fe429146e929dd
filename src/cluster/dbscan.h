// DBSCAN over one snapshot, producing the (m,eps)-clusters of paper Def. 2:
// maximal density-connected object sets of size >= m. A point counts itself
// in its eps-neighbourhood (Sec. 3.1), matching the original DBSCAN minPts
// convention used by all convoy papers.
//
// Every entry point has a DbscanScratch overload: the scratch owns all
// working state (grid index, visited bytes, seed queue, neighbor buffer,
// label array), so repeated clusterings through one scratch — the per-tick
// re-clusterings that dominate HWMT / extension / validation — reuse their
// working buffers; only the returned clusters are fresh allocations. The
// scratch-free overloads reuse a thread-local scratch.
//
// A cluster grows from its first core point through a seed queue taken one
// seed at a time, in queue order. That order decides which cluster a border
// point within eps of two clusters' cores joins: the first to reach it.
//
// IsOneDbscanCluster answers the yes-or-no question behind almost every
// re-clustering — is the whole set still one cluster? — with one 64-bit
// neighbour mask per point and no scratch at all.
#ifndef K2_CLUSTER_DBSCAN_H_
#define K2_CLUSTER_DBSCAN_H_

#include <span>
#include <vector>

#include "cluster/grid_index.h"
#include "common/object_set.h"
#include "common/types.h"

namespace k2 {

/// Per-point cluster labels; -1 = noise. Exposed for tests and for SPARE's
/// snapshot-clustering phase, which needs cluster identities, not just sets.
struct DbscanLabels {
  std::vector<int32_t> label;  // parallel to the input span
  int32_t num_clusters = 0;
};

/// Reusable working state for DBSCAN runs. One scratch serves one thread;
/// create one per worker when clustering concurrently. Contents are
/// implementation details.
struct DbscanScratch {
  GridIndex grid;
  std::vector<uint8_t> visited;
  std::vector<uint32_t> neighbors;
  std::vector<uint32_t> seeds;
  DbscanLabels labels;
  std::vector<std::vector<ObjectId>> members;
  // SoA mirror of small snapshots so the brute-force region query runs the
  // same dispatched eps-scan kernel as the grid path.
  std::vector<double> bf_xs, bf_ys;
  std::vector<uint32_t> bf_ids;
};

/// Clusters the snapshot and returns the (m,eps)-clusters as object-id sets
/// in canonical (lexicographic) order. Border points are attached to the
/// first cluster whose core reaches them, per the original DBSCAN.
std::vector<ObjectSet> Dbscan(std::span<const SnapshotPoint> points,
                              double eps, int min_pts);
std::vector<ObjectSet> Dbscan(std::span<const SnapshotPoint> points,
                              double eps, int min_pts,
                              DbscanScratch* scratch);

/// Most points IsOneDbscanCluster decides: one bit per point in a uint64_t.
inline constexpr size_t kOneClusterMaxPoints = 64;

/// True only if Dbscan(points, eps, min_pts) returns exactly one cluster
/// holding every point. For min_pts <= points.size() <= kOneClusterMaxPoints
/// the converse holds too; outside that range the answer is false without a
/// check. Exact, not approximate: neighbours use eps_scan's expression
/// (`dx*dx + dy*dy <= eps*eps`, self included), a point is core when its
/// neighbourhood holds >= min_pts points, and the answer is whether the
/// density-reachable closure of the lowest-index core point covers every
/// point — the set DBSCAN's first cluster grows from that same point.
bool IsOneDbscanCluster(std::span<const SnapshotPoint> points, double eps,
                        int min_pts);

DbscanLabels DbscanLabelled(std::span<const SnapshotPoint> points, double eps,
                            int min_pts);
/// Zero-alloc variant: labels land in `out` (storage reused across calls).
void DbscanLabelled(std::span<const SnapshotPoint> points, double eps,
                    int min_pts, DbscanScratch* scratch, DbscanLabels* out);

}  // namespace k2

#endif  // K2_CLUSTER_DBSCAN_H_
