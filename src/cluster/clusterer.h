// The pluggable snapshot-clustering seam every miner calls through. A
// SnapshotClusterer answers the two data-access patterns of k/2-hop
// (Sec. 5) — full-snapshot clustering at benchmark points and restricted
// re-clustering of candidate objects elsewhere — against the Store
// interface, and owns the definition of "density-connected" for its
// substrate:
//
//   GeometricClusterer      point-radius DBSCAN over (x, y) coordinates —
//                           the paper's Def. 2 and the default. GridIndex +
//                           SIMD eps-scan fast path; ReCluster asks
//                           IsOneDbscanCluster first.
//   CoLocationGraphClusterer / EpsGraphClusterer (cluster/graph_clusterer.h)
//                           graph DBSCAN over proximity pairs — the
//                           coordinate-free workload.
//
// Implementations must be immutable after construction: one clusterer
// instance is shared by every mining thread, and all mutable working state
// lives in the caller-owned SnapshotScratch (one per thread). Each thread
// also brings its own store handle (a Store::CreateReadSnapshot), so an
// implementation simply reads the store it is given. To add a clusterer,
// implement Cluster/ReCluster and keep the output contract: canonical
// lexicographically-sorted ObjectSets, each of size >= params.m.
#ifndef K2_CLUSTER_CLUSTERER_H_
#define K2_CLUSTER_CLUSTERER_H_

#include <string>
#include <vector>

#include "cluster/dbscan.h"
#include "cluster/graph_core.h"
#include "common/mutex.h"
#include "common/object_set.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/store.h"

namespace k2 {

/// Reusable per-thread state for store-backed clustering: the fetched-points
/// buffer plus the per-substrate scratches. One SnapshotScratch serves one
/// thread; create one per worker when clustering concurrently.
struct SnapshotScratch {
  std::vector<SnapshotPoint> points;
  DbscanScratch dbscan;
  GraphClusterScratch graph;
};

/// Interface of one snapshot-clustering substrate. Thread-compatible:
/// const methods may run concurrently from many threads as long as each
/// passes its own scratch and its own store handle.
///
/// The trailing `store_mu` parameter is unused: nothing passes it and
/// implementations ignore it. It stays only so that overrides written
/// against the older seam (which serialized a shared store on it) keep
/// compiling.
class SnapshotClusterer {
 public:
  virtual ~SnapshotClusterer() = default;

  /// Short stable identifier ("geometric", "colocation-graph", ...) used in
  /// logs, bench rows, and the K2_CLUSTERER env override.
  virtual std::string name() const = 0;

  /// Validates the parts of `params` this substrate interprets. The common
  /// m/k checks are shared (ValidateMiningParams); this hook adds
  /// substrate-specific ones (e.g. eps > 0 for the geometric clusterers).
  virtual Status ValidateParams(const MiningParams& /*params*/) const {
    return Status::OK();
  }

  /// Scans the full snapshot at `t` and returns its clusters (canonical
  /// order, size >= params.m).
  virtual Result<std::vector<ObjectSet>> Cluster(
      Store* store, Timestamp t, const MiningParams& params,
      SnapshotScratch* scratch, Mutex* store_mu = nullptr) const = 0;

  /// reCluster(DB[t]|O): the restricted path — fetches only the points of
  /// `objects` at `t` (random point reads) and clusters them.
  virtual Result<std::vector<ObjectSet>> ReCluster(
      Store* store, Timestamp t, const ObjectSet& objects,
      const MiningParams& params, SnapshotScratch* scratch,
      Mutex* store_mu = nullptr) const = 0;
};

/// The default substrate: point-radius DBSCAN over coordinates, identical
/// in every byte of output to plain Dbscan over the fetched points.
/// ReCluster first asks IsOneDbscanCluster when every requested object was
/// fetched: a yes returns `{objects}` without running DBSCAN.
class GeometricClusterer final : public SnapshotClusterer {
 public:
  std::string name() const override { return "geometric"; }
  Status ValidateParams(const MiningParams& params) const override;
  Result<std::vector<ObjectSet>> Cluster(
      Store* store, Timestamp t, const MiningParams& params,
      SnapshotScratch* scratch, Mutex* store_mu = nullptr) const override;
  Result<std::vector<ObjectSet>> ReCluster(
      Store* store, Timestamp t, const ObjectSet& objects,
      const MiningParams& params, SnapshotScratch* scratch,
      Mutex* store_mu = nullptr) const override;
};

/// The process-wide default clusterer (a static GeometricClusterer, unless
/// the K2_CLUSTERER environment variable selects another registered
/// substrate — "geometric" or "epsgraph" — which is how CI runs the whole
/// differential tier through the graph implementation).
const SnapshotClusterer* DefaultClusterer();

/// params.clusterer if set, else DefaultClusterer(). Never null.
const SnapshotClusterer* ResolveClusterer(const MiningParams& params);

/// Clusterer-aware parameter validation used at every public miner entry
/// point: named errors for m < 2 and k < 2, then the resolved clusterer's
/// ValidateParams (eps <= 0 for geometric substrates). For default params
/// this accepts exactly the set MiningParams::Valid() accepts.
Status ValidateMiningParams(const MiningParams& params);

}  // namespace k2

#endif  // K2_CLUSTER_CLUSTERER_H_
