#include "cluster/clusterer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "cluster/graph_clusterer.h"

namespace k2 {

Status GeometricClusterer::ValidateParams(const MiningParams& params) const {
  if (!(params.eps > 0.0)) {
    return Status::Invalid(
        "MiningParams: eps must be > 0 for the geometric (DBSCAN) clusterer, "
        "got eps=" +
        std::to_string(params.eps));
  }
  return Status::OK();
}

Result<std::vector<ObjectSet>> GeometricClusterer::Cluster(
    Store* store, Timestamp t, const MiningParams& params,
    SnapshotScratch* scratch, Mutex* /*store_mu*/) const {
  K2_RETURN_NOT_OK(store->ScanTimestamp(t, &scratch->points));
  return Dbscan(scratch->points, params.eps, params.m, &scratch->dbscan);
}

Result<std::vector<ObjectSet>> GeometricClusterer::ReCluster(
    Store* store, Timestamp t, const ObjectSet& objects,
    const MiningParams& params, SnapshotScratch* scratch,
    Mutex* /*store_mu*/) const {
  K2_RETURN_NOT_OK(store->GetPoints(t, objects, &scratch->points));
  // Almost every re-clustering only confirms that `objects` is still one
  // cluster; when every object was fetched, the bitmask check answers that
  // exactly, and anything but a yes falls through to DBSCAN.
  if (scratch->points.size() == objects.size() &&
      IsOneDbscanCluster(scratch->points, params.eps, params.m)) {
    return std::vector<ObjectSet>(1, objects);
  }
  return Dbscan(scratch->points, params.eps, params.m, &scratch->dbscan);
}

const SnapshotClusterer* DefaultClusterer() {
  static const GeometricClusterer geometric;
  static const EpsGraphClusterer epsgraph;
  static const SnapshotClusterer* chosen = [&]() -> const SnapshotClusterer* {
    const char* env = std::getenv("K2_CLUSTERER");
    if (env == nullptr || env[0] == '\0') return &geometric;
    const std::string name(env);
    if (name == "geometric") return &geometric;
    if (name == "epsgraph") return &epsgraph;
    std::fprintf(stderr,
                 "K2_CLUSTERER=%s is not a registered clusterer "
                 "(want geometric|epsgraph)\n",
                 env);
    std::abort();
  }();
  return chosen;
}

const SnapshotClusterer* ResolveClusterer(const MiningParams& params) {
  return params.clusterer != nullptr ? params.clusterer : DefaultClusterer();
}

Status ValidateMiningParams(const MiningParams& params) {
  if (params.m < 2) {
    return Status::Invalid(
        "MiningParams: m must be >= 2 (a convoy needs at least two objects), "
        "got m=" +
        std::to_string(params.m));
  }
  if (params.k < 2) {
    return Status::Invalid(
        "MiningParams: k must be >= 2 (a convoy needs a multi-tick lifespan), "
        "got k=" +
        std::to_string(params.k));
  }
  return ResolveClusterer(params)->ValidateParams(params);
}

Status ValidateTickRange(TimeRange range, const MiningParams& params) {
  if (range.empty()) return Status::OK();
  const Timestamp first = kInvalidTimestamp + 1;
  const Timestamp last =
      std::numeric_limits<Timestamp>::max() - std::max(1, params.k / 2);
  if (range.start < first || range.end > last) {
    return Status::Invalid(
        "ticks must lie in [" + std::to_string(first) + ", " +
        std::to_string(last) + "] for k=" + std::to_string(params.k) +
        ", got [" + std::to_string(range.start) + ", " +
        std::to_string(range.end) + "]");
  }
  return Status::OK();
}

}  // namespace k2
