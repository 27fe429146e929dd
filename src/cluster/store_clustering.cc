#include "cluster/store_clustering.h"

namespace k2 {

namespace {

SnapshotScratch* ThreadLocalSnapshotScratch() {
  static thread_local SnapshotScratch scratch;
  return &scratch;
}

}  // namespace

Result<std::vector<ObjectSet>> ClusterSnapshot(Store* store, Timestamp t,
                                               const MiningParams& params,
                                               SnapshotScratch* scratch) {
  return ResolveClusterer(params)->Cluster(store, t, params, scratch);
}

Result<std::vector<ObjectSet>> ClusterSnapshot(Store* store, Timestamp t,
                                               const MiningParams& params) {
  return ClusterSnapshot(store, t, params, ThreadLocalSnapshotScratch());
}

Result<std::vector<ObjectSet>> ReCluster(Store* store, Timestamp t,
                                         const ObjectSet& objects,
                                         const MiningParams& params,
                                         SnapshotScratch* scratch) {
  ++scratch->reclusterings;
  return ResolveClusterer(params)->ReCluster(store, t, objects, params,
                                             scratch);
}

Result<std::vector<ObjectSet>> ReCluster(Store* store, Timestamp t,
                                         const ObjectSet& objects,
                                         const MiningParams& params) {
  return ReCluster(store, t, objects, params, ThreadLocalSnapshotScratch());
}

}  // namespace k2
