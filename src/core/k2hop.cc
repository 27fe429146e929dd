#include "core/k2hop.h"

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_map>

#include "common/parallel_for.h"
#include "core/snapshot_slots.h"

namespace k2 {

std::string K2HopStats::DebugString() const {
  std::ostringstream os;
  os << "K2HopStats{benchmarks=" << benchmark_points
     << ", windows=" << hop_windows << " (mined " << hop_windows_mined << ")"
     << ", candidate_clusters=" << candidate_clusters
     << ", spanning=" << spanning_convoys << ", merged=" << merged_convoys
     << ", prevalidation=" << prevalidation_convoys << ", shards=" << shards
     << " (seams crossed " << seams_crossed << ")"
     << ", points_processed=" << points_processed() << "/" << total_points
     << " (pruned " << pruning_ratio() * 100.0 << "%)}";
  return os.str();
}

std::vector<Timestamp> BenchmarkPoints(TimeRange range, int k) {
  std::vector<Timestamp> points;
  if (range.empty() || k < 2) return points;
  const Timestamp hop = std::max(1, k / 2);
  for (Timestamp b = range.start; b <= range.end; b += hop) {
    points.push_back(b);
  }
  return points;
}

std::vector<ShardPlan> PlanShards(const std::vector<Timestamp>& benchmarks,
                                  int num_shards) {
  std::vector<ShardPlan> plan;
  if (benchmarks.size() < 2) return plan;
  const size_t windows = benchmarks.size() - 1;
  const size_t shards =
      std::min(windows, static_cast<size_t>(std::max(num_shards, 1)));
  const size_t base = windows / shards;
  const size_t remainder = windows % shards;
  size_t next = 0;
  for (size_t s = 0; s < shards; ++s) {
    ShardPlan p;
    p.first_window = next;
    p.num_windows = base + (s < remainder ? 1 : 0);
    next += p.num_windows;
    p.ticks = TimeRange{benchmarks[p.first_window],
                        benchmarks[p.first_window + p.num_windows]};
    plan.push_back(p);
  }
  return plan;
}

std::vector<ObjectSet> CandidateClusters(const std::vector<ObjectSet>& left,
                                         const std::vector<ObjectSet>& right,
                                         int m) {
  std::vector<ObjectSet> out;
  if (left.empty() || right.empty()) return out;
  // Clusters of one tick are pairwise disjoint, so every object id belongs
  // to at most one right cluster: one oid -> right-cluster-index map turns
  // the all-pairs O(|left|·|right|) set intersections into a single
  // O(total ids) hash join. The ids of a left cluster bucketed by right
  // cluster ARE Intersect(left, right[r]) — and they arrive in the left
  // cluster's sorted order, so each bucket is already a valid ObjectSet.
  size_t total_right_ids = 0;
  for (const ObjectSet& b : right) total_right_ids += b.size();
  std::unordered_map<ObjectId, uint32_t> right_of;
  right_of.reserve(total_right_ids);
  for (uint32_t r = 0; r < right.size(); ++r) {
    for (ObjectId oid : right[r]) right_of.emplace(oid, r);
  }

  std::vector<std::vector<ObjectId>> buckets(right.size());
  std::vector<uint32_t> touched;
  for (const ObjectSet& a : left) {
    touched.clear();
    for (ObjectId oid : a) {
      const auto it = right_of.find(oid);
      if (it == right_of.end()) continue;
      std::vector<ObjectId>& bucket = buckets[it->second];
      if (bucket.empty()) touched.push_back(it->second);
      bucket.push_back(oid);
    }
    for (uint32_t r : touched) {
      std::vector<ObjectId>& bucket = buckets[r];
      if (bucket.size() >= static_cast<size_t>(m)) {
        out.push_back(ObjectSet::FromSorted(std::move(bucket)));
        bucket = {};
      } else {
        bucket.clear();
      }
    }
  }
  // The surviving intersections are pairwise disjoint; canonical order only.
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<ObjectSet>> HwmtSpanning(
    Store* store, const MiningParams& params, Timestamp b_left,
    Timestamp b_right, const std::vector<ObjectSet>& candidates,
    bool binary_order, bool verify_right_benchmark,
    SnapshotScratch* scratch, std::vector<ProvenRun>* proven) {
  std::vector<ObjectSet> surviving = candidates;
  if (surviving.empty()) return surviving;
  std::optional<SnapshotScratch> local_scratch;
  if (scratch == nullptr) scratch = &local_scratch.emplace();

  // Probe order over the window interior (the HWMT of Fig. 4, processed
  // level by level == BinarySubdivisionOrder minus the endpoints).
  std::vector<Timestamp> order;
  if (binary_order) {
    const std::vector<Timestamp> with_endpoints =
        BinarySubdivisionOrder({b_left, b_right});
    order.assign(with_endpoints.begin() + std::min<size_t>(
                                              2, with_endpoints.size()),
                 with_endpoints.end());
  } else {
    for (Timestamp t = b_left + 1; t < b_right; ++t) order.push_back(t);
  }
  if (verify_right_benchmark) order.insert(order.begin(), b_right);

  // whole[i]: surviving[i] is still a whole candidate. Clusters are subsets
  // of the set re-clustered, so one of equal size is that set itself.
  std::vector<char> whole(surviving.size(), 1);
  for (Timestamp t : order) {
    std::vector<ObjectSet> next;
    std::vector<char> next_whole;
    for (size_t i = 0; i < surviving.size(); ++i) {
      K2_ASSIGN_OR_RETURN(std::vector<ObjectSet> clusters,
                          ReCluster(store, t, surviving[i], params, scratch));
      for (ObjectSet& c : clusters) {
        next_whole.push_back(whole[i] && c.size() == surviving[i].size());
        next.push_back(std::move(c));
      }
    }
    if (next.empty()) return next;  // no spanning convoy in this window
    surviving = std::move(next);
    whole = std::move(next_whole);
  }
  if (proven != nullptr && !order.empty()) {
    // The probed ticks: the interior, plus b_right when it was verified.
    const TimeRange probed{b_left + 1,
                           verify_right_benchmark ? b_right : b_right - 1};
    for (size_t i = 0; i < surviving.size(); ++i) {
      if (whole[i]) proven->push_back(ProvenRun{surviving[i], probed});
    }
  }
  std::sort(surviving.begin(), surviving.end());
  return surviving;
}

namespace {

void AddEarliest(SpanningConvoyMerger::StartMap* map, ObjectSet set,
                 Timestamp start);

}  // namespace

void SpanningConvoyMerger::AddWindow(Timestamp window_start,
                                     const std::vector<ObjectSet>& spanning,
                                     std::vector<Convoy>* died) {
  StartMap next;
  // Deaths of one window can dominate each other (active entries overlap);
  // deaths of different windows never can, so a per-window maximal set is
  // enough to reproduce the global merge result.
  MaximalConvoySet window_died;
  for (const auto& [set, start] : active_) {
    bool fully_extended = false;
    for (const ObjectSet& s : spanning) {
      ObjectSet x = ObjectSet::Intersect(set, s);
      if (x.size() < static_cast<size_t>(m_)) continue;
      if (x == set) fully_extended = true;
      AddEarliest(&next, std::move(x), start);
    }
    if (!fully_extended) {
      window_died.Insert(Convoy(set, start, window_start));
    }
  }
  for (const ObjectSet& s : spanning) {
    AddEarliest(&next, s, window_start);
  }
  active_ = std::move(next);
  for (Convoy& v : window_died.TakeSorted()) died->push_back(std::move(v));
}

void SpanningConvoyMerger::Finish(Timestamp last_benchmark,
                                  std::vector<Convoy>* died) {
  MaximalConvoySet closing;
  for (auto& [set, start] : active_) {
    closing.Insert(Convoy(set, start, last_benchmark));
  }
  active_.clear();
  for (Convoy& v : closing.TakeSorted()) died->push_back(std::move(v));
}

std::vector<Convoy> MergeSpanningConvoys(
    const std::vector<std::vector<ObjectSet>>& spanning,
    const std::vector<Timestamp>& benchmarks, int m) {
  MaximalConvoySet results;
  SpanningConvoyMerger merger(m);
  std::vector<Convoy> died;
  for (size_t w = 0; w < spanning.size(); ++w) {
    merger.AddWindow(benchmarks[w], spanning[w], &died);
  }
  if (!benchmarks.empty()) merger.Finish(benchmarks.back(), &died);
  for (Convoy& v : died) results.Insert(std::move(v));
  return results.TakeSorted();
}

namespace {

/// Merge/extension bookkeeping: object set -> earliest start seen.
void AddEarliest(SpanningConvoyMerger::StartMap* map, ObjectSet set,
                 Timestamp start) {
  auto [it, inserted] = map->try_emplace(std::move(set), start);
  if (!inserted && start < it->second) it->second = start;
}

}  // namespace

ConvoyExtensionWalk::ConvoyExtensionWalk(const Convoy& seed, int dir)
    : dir_(dir),
      other_side_(dir > 0 ? seed.start : seed.end),
      next_t_(dir > 0 ? seed.end + 1 : seed.start - 1),
      frontier_{Branch{seed.objects}} {}

void ConvoyExtensionWalk::ReportRun(const Branch& branch, Timestamp last,
                                    std::vector<ProvenRun>* proven) const {
  if (proven == nullptr || branch.proven_from == kInvalidTimestamp) return;
  proven->push_back(ProvenRun{
      branch.objects, dir_ > 0 ? TimeRange{branch.proven_from, last}
                               : TimeRange{last, branch.proven_from}});
}

Status ConvoyExtensionWalk::Advance(Store* store, const MiningParams& params,
                                    Timestamp upto,
                                    std::vector<Convoy>* completed,
                                    SnapshotScratch* scratch,
                                    std::vector<ProvenRun>* proven) {
  std::optional<SnapshotScratch> local_scratch;
  if (scratch == nullptr) scratch = &local_scratch.emplace();
  while (!frontier_.empty() && (dir_ > 0 ? next_t_ <= upto : next_t_ >= upto)) {
    const Timestamp t = next_t_;
    std::vector<Branch> next;
    for (Branch& branch : frontier_) {
      K2_ASSIGN_OR_RETURN(std::vector<ObjectSet> clusters,
                          ReCluster(store, t, branch.objects, params, scratch));
      bool found_self = false;
      for (ObjectSet& c : clusters) {
        Branch child{std::move(c)};
        if (child.objects == branch.objects) {
          // ReCluster returned exactly {objects}: the run goes on. A
          // split-born child starts unproven, as only its parent was
          // re-clustered at t.
          found_self = true;
          child.proven_from = branch.proven_from == kInvalidTimestamp
                                  ? t
                                  : branch.proven_from;
        }
        next.push_back(std::move(child));
      }
      if (!found_self) {
        // The branch could not be extended in its current shape: emit it.
        const Timestamp cur_end = t - dir_;
        ReportRun(branch, cur_end, proven);
        completed->push_back(
            dir_ > 0 ? Convoy(std::move(branch.objects), other_side_, cur_end)
                     : Convoy(std::move(branch.objects), cur_end, other_side_));
      }
    }
    // All branches of one walk share other_side_, so deduplication is by
    // object set alone.
    std::sort(next.begin(), next.end(), [](const Branch& a, const Branch& b) {
      return a.objects < b.objects;
    });
    next.erase(std::unique(next.begin(), next.end(),
                           [](const Branch& a, const Branch& b) {
                             return a.objects == b.objects;
                           }),
               next.end());
    frontier_ = std::move(next);
    next_t_ += dir_;
  }
  return Status::OK();
}

void ConvoyExtensionWalk::Flush(Timestamp limit,
                                std::vector<Convoy>* completed,
                                std::vector<ProvenRun>* proven) {
  for (Branch& branch : frontier_) {
    ReportRun(branch, next_t_ - dir_, proven);
    completed->push_back(
        dir_ > 0 ? Convoy(std::move(branch.objects), other_side_, limit)
                 : Convoy(std::move(branch.objects), limit, other_side_));
  }
  frontier_.clear();
}

Result<std::vector<Convoy>> ExtendRight(Store* store,
                                        const MiningParams& params,
                                        const std::vector<Convoy>& convoys,
                                        Timestamp dataset_end) {
  SnapshotSlots slots(store, 1);
  return slots.Extend(params, convoys, dataset_end, +1);
}

Result<std::vector<Convoy>> ExtendLeft(Store* store, const MiningParams& params,
                                       const std::vector<Convoy>& convoys,
                                       Timestamp dataset_start,
                                       ProofBook* book) {
  SnapshotSlots slots(store, 1);
  return slots.Extend(params, convoys, dataset_start, -1, book);
}

namespace {

/// Steps 1–3 — benchmark clustering, candidate clusters, HWMT — over one
/// shard's slice of the benchmark grid. Fills `spanning->at(w)` with the
/// spanning convoys of the window [benchmarks[w], benchmarks[w+1]], adds
/// HWMT's proofs to `book` and the phase times and window counters to `s`.
/// Benchmark points and windows fan out over `slots`; results are gathered
/// by index, so the output is identical for every slot count.
// k2-lint: allow(validate-mining-params): a pipeline stage, not an entry:
// MineK2Hop, its only caller, validates the params first.
Status MineHopWindows(SnapshotSlots* slots, const MiningParams& params,
                      std::span<const Timestamp> benchmarks,
                      const K2HopOptions& options,
                      std::vector<std::vector<ObjectSet>>* spanning,
                      ProofBook* book, K2HopStats* s) {
  // Step 1: cluster the benchmark points, concurrently across points.
  Stopwatch sw;
  std::vector<std::vector<ObjectSet>> benchmark_clusters(benchmarks.size());
  K2_RETURN_NOT_OK(slots->ForEach(
      benchmarks.size(), [&](SnapshotSlots::Slot& slot, size_t i) -> Status {
        K2_ASSIGN_OR_RETURN(benchmark_clusters[i],
                            ClusterSnapshot(slot.store, benchmarks[i], params,
                                            &slot.scratch));
        return Status::OK();
      }));
  s->phases.Add("benchmark", sw.ElapsedSeconds());

  // Step 2: candidate clusters per hop-window.
  sw.Restart();
  const size_t num_windows = benchmarks.size() - 1;
  s->hop_windows += num_windows;
  std::vector<std::vector<ObjectSet>> candidates(num_windows);
  for (size_t w = 0; w < num_windows; ++w) {
    if (options.candidate_pruning) {
      candidates[w] = CandidateClusters(benchmark_clusters[w],
                                        benchmark_clusters[w + 1], params.m);
    } else {
      candidates[w] = benchmark_clusters[w];  // ablation: no intersection
    }
    s->candidate_clusters += candidates[w].size();
    if (!candidates[w].empty()) ++s->hop_windows_mined;
  }
  s->phases.Add("candidates", sw.ElapsedSeconds());

  // Step 3: HWMT inside each window, concurrently across windows.
  sw.Restart();
  spanning->assign(num_windows, {});
  std::vector<std::vector<ProvenRun>> proven(num_windows);
  K2_RETURN_NOT_OK(slots->ForEach(
      num_windows, [&](SnapshotSlots::Slot& slot, size_t w) -> Status {
        if (candidates[w].empty()) return Status::OK();
        K2_ASSIGN_OR_RETURN(
            (*spanning)[w],
            HwmtSpanning(slot.store, params, benchmarks[w], benchmarks[w + 1],
                         candidates[w], options.hwmt_binary_order,
                         /*verify_right_benchmark=*/!options.candidate_pruning,
                         &slot.scratch, &proven[w]));
        return Status::OK();
      }));
  for (size_t w = 0; w < num_windows; ++w) {
    s->spanning_convoys += (*spanning)[w].size();
    book->Add(proven[w]);
  }
  s->phases.Add("HWMT", sw.ElapsedSeconds());
  return Status::OK();
}

}  // namespace

Result<std::vector<Convoy>> MineK2Hop(Store* store, const MiningParams& params,
                                      const K2HopOptions& options,
                                      K2HopStats* stats) {
  K2_RETURN_NOT_OK(ValidateMiningParams(params));
  K2_RETURN_NOT_OK(store->status());
  K2HopStats local;
  K2HopStats* s = stats != nullptr ? stats : &local;
  *s = K2HopStats();
  s->total_points = store->num_points();

  const TimeRange range = store->time_range();
  if (range.length() < params.k) return std::vector<Convoy>{};

  // Threading setup. With T = num_threads (default hardware_concurrency),
  // every per-item phase runs on the calling thread plus up to T - 1
  // threads started for the phase, each reading through its own store
  // snapshot; T = 1 runs inline on the store itself.
  int threads =
      options.num_threads > 0 ? options.num_threads : HardwareThreads();
  // Each phase costs a thread create/join per extra runner. An explicit
  // num_threads is always honored, but the default runs inline for jobs
  // too small to amortize it (sub-millisecond mines in tests and sweeps).
  if (options.num_threads <= 0 && store->num_points() < 65536) threads = 1;
  SnapshotSlots slots(store, threads);

  // Steps 1–4, shard by shard. A range of at least k ticks holds at least
  // two benchmarks, so the plan has at least one shard.
  const std::vector<Timestamp> benchmarks = BenchmarkPoints(range, params.k);
  const std::vector<ShardPlan> plan =
      PlanShards(benchmarks, options.num_shards);
  s->benchmark_points = benchmarks.size();
  s->shards = plan.size();
  SpanningConvoyMerger merger(params.m);
  std::vector<Convoy> died;
  std::vector<std::vector<ObjectSet>> spanning;
  ProofBook book;  // what HWMT and the walks proved, for validation
  for (size_t i = 0; i < plan.size(); ++i) {
    const std::span<const Timestamp> shard(
        benchmarks.data() + plan[i].first_window, plan[i].num_benchmarks());
    K2_RETURN_NOT_OK(
        MineHopWindows(&slots, params, shard, options, &spanning, &book, s));

    // Step 4 for the shard's windows, and the seam stitch of DCM's
    // partition-and-merge: the fold carries the convoys spanning the
    // shard's left seam into its windows. With nothing carried, the shard's
    // fold starts empty, as if the shard had been mined on its own, and is
    // adopted as it is; otherwise the carried state replays through the
    // shard's windows. Shards run in turn, so both are the same fold.
    Stopwatch sw;
    if (merger.active_size() == 0) {
      ++s->adopted_folds;
    } else {
      ++s->stitch_replays;
    }
    for (size_t w = 0; w < spanning.size(); ++w) {
      merger.AddWindow(shard[w], spanning[w], &died);
    }
    if (i + 1 < plan.size() && merger.active_size() > 0) ++s->seams_crossed;
    s->phases.Add("merge", sw.ElapsedSeconds());
  }

  // Close the fold: the maximal spanning convoys.
  Stopwatch sw;
  merger.Finish(benchmarks.back(), &died);
  MaximalConvoySet maximal;
  for (Convoy& v : died) maximal.Insert(std::move(v));
  std::vector<Convoy> merged = maximal.TakeSorted();
  s->merged_convoys = merged.size();
  s->phases.Add("merge", sw.ElapsedSeconds());

  // Step 5: extension to exact lifespans (right first, then left, as in
  // Sec. 4.5); the k filter applies only after the left pass.
  sw.Restart();
  K2_ASSIGN_OR_RETURN(merged,
                      slots.Extend(params, merged, range.end, +1, &book));
  s->phases.Add("extend-right", sw.ElapsedSeconds());
  sw.Restart();
  K2_ASSIGN_OR_RETURN(merged,
                      slots.Extend(params, merged, range.start, -1, &book));
  merged = FilterMinLength(std::move(merged), params.k);
  s->phases.Add("extend-left", sw.ElapsedSeconds());
  s->prevalidation_convoys = merged.size();

  // Step 6: fully connected validation.
  std::vector<Convoy> result;
  if (options.validate) {
    sw.Restart();
    K2_ASSIGN_OR_RETURN(result, slots.Validate(params, std::move(merged),
                                               book, &s->validation));
    s->phases.Add("validation", sw.ElapsedSeconds());
  } else {
    result = std::move(merged);
  }
  s->io = slots.io();
  return result;
}

}  // namespace k2
