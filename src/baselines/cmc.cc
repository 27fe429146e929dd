#include "baselines/cmc.h"

#include <unordered_map>

#include "cluster/store_clustering.h"

namespace k2 {

ClustersAtFn StoreClustersFn(Store* store, const MiningParams& params) {
  return [store, params](Timestamp t, std::vector<ObjectSet>* out) -> Status {
    K2_ASSIGN_OR_RETURN(*out, ClusterSnapshot(store, t, params));
    return Status::OK();
  };
}

Result<std::vector<Convoy>> MineCmc(Store* store, const MiningParams& params) {
  K2_RETURN_NOT_OK(ValidateMiningParams(params));
  K2_RETURN_NOT_OK(store->status());
  K2_RETURN_NOT_OK(ValidateTickRange(store->time_range(), params));
  const TimeRange range = store->time_range();
  auto clusters_at = StoreClustersFn(store, params);

  struct Candidate {
    ObjectSet set;
    Timestamp start;
  };
  std::vector<Candidate> active;
  std::vector<Convoy> results;
  std::vector<ObjectSet> clusters;

  // One step of candidate maintenance at tick t with the clusters above.
  const auto step = [&](Timestamp t) {
    std::vector<Candidate> next;
    std::vector<bool> candidate_matched(active.size(), false);
    std::vector<bool> cluster_matched(clusters.size(), false);
    for (size_t vi = 0; vi < active.size(); ++vi) {
      for (size_t ci = 0; ci < clusters.size(); ++ci) {
        ObjectSet x = ObjectSet::Intersect(active[vi].set, clusters[ci]);
        if (x.size() < static_cast<size_t>(params.m)) continue;
        candidate_matched[vi] = true;
        cluster_matched[ci] = true;
        next.push_back(Candidate{std::move(x), active[vi].start});
      }
    }
    for (size_t vi = 0; vi < active.size(); ++vi) {
      if (!candidate_matched[vi] &&
          t - active[vi].start >= params.k) {  // length (t-1) - start + 1 >= k
        results.emplace_back(active[vi].set, active[vi].start, t - 1);
      }
    }
    // The bug: clusters that matched some candidate do NOT start fresh
    // candidates (compare sweep.cc, which always adds them).
    for (size_t ci = 0; ci < clusters.size(); ++ci) {
      if (!cluster_matched[ci]) {
        next.push_back(Candidate{clusters[ci], t});
      }
    }
    // Deduplicate identical (set, start) pairs that arise from multiple
    // intersections.
    std::unordered_map<ObjectSet, Timestamp, ObjectSetHash> dedup;
    for (Candidate& c : next) {
      auto [it, inserted] = dedup.try_emplace(std::move(c.set), c.start);
      if (!inserted && c.start < it->second) it->second = c.start;
    }
    active.clear();
    for (auto& [set, start] : dedup) active.push_back(Candidate{set, start});
  };
  // Only the data ticks are clustered. A run of ticks without data ends
  // every candidate at its first tick (one step with no clusters) and then
  // holds none, so the rest of the run is skipped. The range spans the
  // data ticks, so no run trails the last one.
  int64_t unstepped = range.start;  // the first tick not stepped yet
  for (const Timestamp t : store->timestamps()) {
    clusters.clear();
    if (t > unstepped) step(static_cast<Timestamp>(unstepped));
    K2_RETURN_NOT_OK(clusters_at(t, &clusters));
    step(t);
    unstepped = int64_t{t} + 1;
  }
  for (const Candidate& c : active) {
    if (range.end - c.start + 1 >= params.k) {
      results.emplace_back(c.set, c.start, range.end);
    }
  }
  return FilterMaximal(std::move(results));
}

Result<std::vector<Convoy>> MinePccd(Store* store,
                                     const MiningParams& params) {
  K2_RETURN_NOT_OK(ValidateMiningParams(params));
  K2_RETURN_NOT_OK(store->status());
  K2_RETURN_NOT_OK(ValidateTickRange(store->time_range(), params));
  SweepOptions options;
  options.min_length = params.k;
  return MaximalConvoySweep(StoreClustersFn(store, params),
                            store->timestamps(), store->time_range(),
                            params.m, options);
}

}  // namespace k2
