// Clustering primitives expressed against the Store interface — the two data
// access patterns of k/2-hop (Sec. 5): full-snapshot clustering at benchmark
// points and restricted re-clustering of candidate objects elsewhere. Both
// dispatch through the SnapshotClusterer carried by MiningParams (defaulting
// to the geometric DBSCAN substrate), so every miner calling these functions
// works on any clustering substrate unchanged.
#ifndef K2_CLUSTER_STORE_CLUSTERING_H_
#define K2_CLUSTER_STORE_CLUSTERING_H_

#include <vector>

#include "cluster/clusterer.h"
#include "common/object_set.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/store.h"

namespace k2 {

/// Scans the full snapshot at `t` and returns its clusters under
/// `params` (for the default geometric clusterer: the (m,eps)-clusters).
///
/// The scratch overloads reuse `scratch` across calls (allocation-free in
/// steady state). A store handle serves one thread at a time: concurrent
/// callers each pass their own Store::CreateReadSnapshot handle.
Result<std::vector<ObjectSet>> ClusterSnapshot(Store* store, Timestamp t,
                                               const MiningParams& params);
Result<std::vector<ObjectSet>> ClusterSnapshot(Store* store, Timestamp t,
                                               const MiningParams& params,
                                               SnapshotScratch* scratch);

/// reCluster(DB[t]|O): fetches only the points of `objects` at `t` (random
/// point reads) and clusters them. This is the pruned access path.
Result<std::vector<ObjectSet>> ReCluster(Store* store, Timestamp t,
                                         const ObjectSet& objects,
                                         const MiningParams& params);
Result<std::vector<ObjectSet>> ReCluster(Store* store, Timestamp t,
                                         const ObjectSet& objects,
                                         const MiningParams& params,
                                         SnapshotScratch* scratch);

}  // namespace k2

#endif  // K2_CLUSTER_STORE_CLUSTERING_H_
