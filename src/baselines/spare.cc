#include "baselines/spare.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <vector>

#include "cluster/clusterer.h"
#include "cluster/dbscan.h"
#include "common/parallel_for.h"

namespace k2 {

namespace {

/// (tick, cluster-id) membership timeline of one object, tick-ascending.
using Timeline = std::vector<std::pair<Timestamp, int32_t>>;

/// Longest run of consecutive ticks in a tick-ascending list.
int64_t MaxConsecutiveRun(const std::vector<Timestamp>& ticks) {
  int64_t best = 0, cur = 0;
  for (size_t i = 0; i < ticks.size(); ++i) {
    cur = (i > 0 && ticks[i] == ticks[i - 1] + 1) ? cur + 1 : 1;
    best = std::max(best, cur);
  }
  return best;
}

/// Emits every maximal run of length >= k as a convoy of `objects`.
void EmitRuns(const std::vector<Timestamp>& ticks, const ObjectSet& objects,
              int k, std::vector<Convoy>* out) {
  size_t i = 0;
  while (i < ticks.size()) {
    size_t j = i;
    while (j + 1 < ticks.size() && ticks[j + 1] == ticks[j] + 1) ++j;
    if (static_cast<int64_t>(j - i + 1) >= k) {
      out->emplace_back(objects, ticks[i], ticks[j]);
    }
    i = j + 1;
  }
}

struct StarContext {
  const std::vector<ObjectId>* universe;
  const std::vector<Timeline>* timelines;  // indexed by universe position
  const std::vector<std::vector<uint32_t>>* stars;  // forward neighbours
  const MiningParams* params;
  std::atomic<uint64_t>* dfs_budget;
  std::atomic<bool>* budget_exhausted;
};

/// DFS apriori enumeration inside the star of `root`. `members` are universe
/// positions (ascending, starting with root); `ticks` carries the ticks at
/// which all members share root's cluster.
void Enumerate(const StarContext& ctx, uint32_t root,
               std::vector<uint32_t>* members, std::vector<Timestamp>* ticks,
               size_t next_index, std::vector<Convoy>* out) {
  if (ctx.dfs_budget->fetch_sub(1) == 0) {
    ctx.budget_exhausted->store(true);
    return;
  }
  if (ctx.budget_exhausted->load(std::memory_order_relaxed)) return;

  if (members->size() >= static_cast<size_t>(ctx.params->m)) {
    std::vector<ObjectId> ids;
    ids.reserve(members->size());
    for (uint32_t pos : *members) ids.push_back((*ctx.universe)[pos]);
    EmitRuns(*ticks, ObjectSet(std::move(ids)), ctx.params->k, out);
  }
  const std::vector<uint32_t>& star = (*ctx.stars)[root];
  const Timeline& root_tl = (*ctx.timelines)[root];
  for (size_t i = next_index; i < star.size(); ++i) {
    const uint32_t w = star[i];
    // new_ticks = {t in ticks : cid_w(t) == cid_root(t)}; merge-join over
    // the two tick-sorted sequences.
    std::vector<Timestamp> new_ticks;
    const Timeline& w_tl = (*ctx.timelines)[w];
    size_t a = 0, b = 0, r = 0;
    for (Timestamp t : *ticks) {
      while (a < w_tl.size() && w_tl[a].first < t) ++a;
      if (a == w_tl.size()) break;
      if (w_tl[a].first != t) continue;
      while (r < root_tl.size() && root_tl[r].first < t) ++r;
      if (r < root_tl.size() && root_tl[r].first == t &&
          root_tl[r].second == w_tl[a].second) {
        new_ticks.push_back(t);
      }
    }
    (void)b;
    if (MaxConsecutiveRun(new_ticks) < ctx.params->k) continue;  // apriori prune
    members->push_back(w);
    std::vector<Timestamp> saved = std::move(*ticks);
    *ticks = std::move(new_ticks);
    Enumerate(ctx, root, members, ticks, i + 1, out);
    *ticks = std::move(saved);
    members->pop_back();
  }
}

}  // namespace

Result<std::vector<Convoy>> MineSpare(Store* store, const MiningParams& params,
                                      const SpareOptions& options,
                                      SpareStats* stats) {
  K2_RETURN_NOT_OK(ValidateMiningParams(params));
  K2_RETURN_NOT_OK(store->status());
  K2_RETURN_NOT_OK(ValidateTickRange(store->time_range(), params));
  SpareStats local;
  SpareStats* s = stats != nullptr ? stats : &local;
  const int workers = std::max(1, options.num_workers);

  // ---- Phase 1: snapshot clustering (the "preprocessing" MapReduce stage).
  Stopwatch sw;
  const std::vector<Timestamp> ticks = store->timestamps();
  std::vector<std::vector<SnapshotPoint>> snapshots(ticks.size());
  for (size_t i = 0; i < ticks.size(); ++i) {
    K2_RETURN_NOT_OK(store->ScanTimestamp(ticks[i], &snapshots[i]));
  }
  std::vector<DbscanLabels> labels(ticks.size());
  ParallelFor(workers, ticks.size(), [&](size_t, size_t i) {
    labels[i] = DbscanLabelled(snapshots[i], params.eps, params.m);
  });
  s->phases.Add("clustering", sw.ElapsedSeconds());

  // ---- Build per-object timelines and the co-clustering edge set.
  sw.Restart();
  std::vector<ObjectId> universe;
  std::unordered_map<ObjectId, uint32_t> position;
  std::vector<Timeline> timelines;
  auto position_of = [&](ObjectId oid) {
    auto [it, inserted] =
        position.try_emplace(oid, static_cast<uint32_t>(universe.size()));
    if (inserted) {
      universe.push_back(oid);
      timelines.emplace_back();
    }
    return it->second;
  };
  // Cluster-size filter: a cluster smaller than m can never host a convoy.
  struct RunTracker {
    Timestamp prev = kInvalidTimestamp;
    int32_t run = 0;
    bool edge = false;
  };
  std::unordered_map<uint64_t, RunTracker> pair_runs;
  std::vector<std::vector<uint32_t>> cluster_members;
  for (size_t i = 0; i < ticks.size(); ++i) {
    const Timestamp t = ticks[i];
    cluster_members.assign(labels[i].num_clusters, {});
    for (size_t p = 0; p < snapshots[i].size(); ++p) {
      const int32_t cid = labels[i].label[p];
      if (cid < 0) continue;
      cluster_members[cid].push_back(position_of(snapshots[i][p].oid));
    }
    for (int32_t cid = 0; cid < labels[i].num_clusters; ++cid) {
      auto& members = cluster_members[cid];
      if (members.size() < static_cast<size_t>(params.m)) continue;
      std::sort(members.begin(), members.end());
      for (uint32_t pos : members) timelines[pos].emplace_back(t, cid);
      for (size_t a = 0; a < members.size(); ++a) {
        for (size_t b = a + 1; b < members.size(); ++b) {
          const uint64_t key =
              (static_cast<uint64_t>(members[a]) << 32) | members[b];
          RunTracker& tracker = pair_runs[key];
          tracker.run = (tracker.prev == t - 1) ? tracker.run + 1 : 1;
          tracker.prev = t;
          if (tracker.run >= params.k) tracker.edge = true;
        }
      }
    }
  }
  std::vector<std::vector<uint32_t>> stars(universe.size());
  for (const auto& [key, tracker] : pair_runs) {
    if (!tracker.edge) continue;
    stars[key >> 32].push_back(static_cast<uint32_t>(key & 0xffffffffu));
    ++s->edges;
  }
  for (auto& star : stars) std::sort(star.begin(), star.end());
  s->stars = universe.size();
  s->phases.Add("edges", sw.ElapsedSeconds());

  // ---- Phase 2: apriori enumeration per star, in parallel.
  sw.Restart();
  std::atomic<uint64_t> budget{options.enumeration_budget};
  std::atomic<bool> exhausted{false};
  std::vector<std::vector<Convoy>> worker_results(workers);
  const StarContext ctx{&universe, &timelines, &stars,
                        &params,   &budget,    &exhausted};
  ParallelFor(workers, stars.size(), [&](size_t slot, size_t i) {
    const uint32_t root = static_cast<uint32_t>(i);
    if (stars[root].size() + 1 < static_cast<size_t>(params.m)) return;
    std::vector<uint32_t> members{root};
    std::vector<Timestamp> root_ticks;
    for (const auto& [t, cid] : timelines[root]) root_ticks.push_back(t);
    Enumerate(ctx, root, &members, &root_ticks, 0, &worker_results[slot]);
  });
  s->dfs_nodes = options.enumeration_budget -
                 std::min(options.enumeration_budget, budget.load());
  s->budget_exhausted = exhausted.load();

  std::vector<Convoy> all;
  for (auto& wr : worker_results) {
    std::move(wr.begin(), wr.end(), std::back_inserter(all));
  }
  std::vector<Convoy> result = FilterMaximal(std::move(all));
  s->phases.Add("enumeration", sw.ElapsedSeconds());
  return result;
}

}  // namespace k2
