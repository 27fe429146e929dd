#include "cluster/graph_clusterer.h"

#include <algorithm>

namespace k2 {

namespace {

// Same cutoff as dbscan.cc: below it, scanning all points beats building a
// grid for the tiny re-clusterings that dominate the pruned access paths.
constexpr size_t kBruteForceThreshold = 32;

// CSR eps-graph of `points` (self excluded) into scratch->graph.
void BuildEpsAdjacency(std::span<const SnapshotPoint> points, double eps,
                       SnapshotScratch* scratch) {
  GraphClusterScratch& g = scratch->graph;
  const size_t n = points.size();
  g.adj.clear();
  g.adj_offsets.assign(1, 0);
  if (n > kBruteForceThreshold) {
    scratch->dbscan.grid.Build(points, eps);
    std::vector<uint32_t>& nbrs = scratch->dbscan.neighbors;
    for (size_t i = 0; i < n; ++i) {
      nbrs.clear();
      scratch->dbscan.grid.Neighbors(i, eps, &nbrs);
      for (const uint32_t j : nbrs) {
        if (j != static_cast<uint32_t>(i)) g.adj.push_back(j);
      }
      g.adj_offsets.push_back(static_cast<uint32_t>(g.adj.size()));
    }
  } else {
    const double eps2 = eps * eps;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const double dx = points[i].x - points[j].x;
        const double dy = points[i].y - points[j].y;
        if (dx * dx + dy * dy <= eps2) {
          g.adj.push_back(static_cast<uint32_t>(j));
        }
      }
      g.adj_offsets.push_back(static_cast<uint32_t>(g.adj.size()));
    }
  }
}

// Induced co-location adjacency: edges of `edges` restricted to the fetched
// (oid-sorted) points, into scratch->graph. Neighbour oids outside the
// fetched set are dropped — the graph form of the restriction DB[t]|O.
void BuildInducedAdjacency(std::span<const SnapshotPoint> points,
                           const SnapshotEdges& edges,
                           SnapshotScratch* scratch) {
  GraphClusterScratch& g = scratch->graph;
  const size_t n = points.size();
  g.oids.resize(n);
  for (size_t i = 0; i < n; ++i) g.oids[i] = points[i].oid;
  g.adj.clear();
  g.adj_offsets.assign(1, 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t row = edges.empty() ? SnapshotEdges::npos
                                     : edges.IndexOf(g.oids[i]);
    if (row != SnapshotEdges::npos) {
      for (const ObjectId nbr : edges.Row(row)) {
        const auto it = std::lower_bound(g.oids.begin(), g.oids.end(), nbr);
        if (it != g.oids.end() && *it == nbr) {
          g.adj.push_back(static_cast<uint32_t>(it - g.oids.begin()));
        }
      }
    }
    g.adj_offsets.push_back(static_cast<uint32_t>(g.adj.size()));
  }
}

std::vector<ObjectSet> ClusterFetched(std::span<const SnapshotPoint> points,
                                      int min_pts, SnapshotScratch* scratch) {
  GraphClusterScratch& g = scratch->graph;
  g.oids.resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) g.oids[i] = points[i].oid;
  return GraphClusters(g.oids, g.adj_offsets, g.adj, min_pts, &g);
}

}  // namespace

Result<std::vector<ObjectSet>> CoLocationGraphClusterer::Cluster(
    Store* store, Timestamp t, const MiningParams& params,
    SnapshotScratch* scratch, Mutex* /*store_mu*/) const {
  K2_RETURN_NOT_OK(store->ScanTimestamp(t, &scratch->points));
  BuildInducedAdjacency(scratch->points, log_->EdgesAt(t), scratch);
  return GraphClusters(scratch->graph.oids, scratch->graph.adj_offsets,
                       scratch->graph.adj, params.m, &scratch->graph);
}

Result<std::vector<ObjectSet>> CoLocationGraphClusterer::ReCluster(
    Store* store, Timestamp t, const ObjectSet& objects,
    const MiningParams& params, SnapshotScratch* scratch,
    Mutex* /*store_mu*/) const {
  K2_RETURN_NOT_OK(store->GetPoints(t, objects, &scratch->points));
  BuildInducedAdjacency(scratch->points, log_->EdgesAt(t), scratch);
  return GraphClusters(scratch->graph.oids, scratch->graph.adj_offsets,
                       scratch->graph.adj, params.m, &scratch->graph);
}

Status EpsGraphClusterer::ValidateParams(const MiningParams& params) const {
  if (!(params.eps > 0.0)) {
    return Status::Invalid(
        "MiningParams: eps must be > 0 for the epsgraph clusterer, got eps=" +
        std::to_string(params.eps));
  }
  return Status::OK();
}

Result<std::vector<ObjectSet>> EpsGraphClusterer::Cluster(
    Store* store, Timestamp t, const MiningParams& params,
    SnapshotScratch* scratch, Mutex* /*store_mu*/) const {
  K2_RETURN_NOT_OK(store->ScanTimestamp(t, &scratch->points));
  return EpsGraphClusters(scratch->points, params.eps, params.m, scratch);
}

Result<std::vector<ObjectSet>> EpsGraphClusterer::ReCluster(
    Store* store, Timestamp t, const ObjectSet& objects,
    const MiningParams& params, SnapshotScratch* scratch,
    Mutex* /*store_mu*/) const {
  K2_RETURN_NOT_OK(store->GetPoints(t, objects, &scratch->points));
  return EpsGraphClusters(scratch->points, params.eps, params.m, scratch);
}

std::vector<ObjectSet> EpsGraphClusters(std::span<const SnapshotPoint> points,
                                        double eps, int min_pts,
                                        SnapshotScratch* scratch) {
  BuildEpsAdjacency(points, eps, scratch);
  return ClusterFetched(points, min_pts, scratch);
}

}  // namespace k2
