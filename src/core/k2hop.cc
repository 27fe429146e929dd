#include "core/k2hop.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_map>

#include "common/check.h"
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
     << " (probed " << probed_points << ")"
     << " (pruned " << pruning_ratio() * 100.0 << "%)}";
  return os.str();
}

std::vector<Timestamp> BinarySubdivisionOrder(TimeRange range) {
  std::vector<Timestamp> order;
  if (range.empty()) return order;
  order.push_back(range.start);
  if (range.end != range.start) order.push_back(range.end);
  // BFS over segments; the midpoint of each segment is emitted, then the two
  // halves are queued. Every interior tick is the midpoint of exactly one
  // segment of the subdivision.
  std::deque<TimeRange> queue{range};
  while (!queue.empty()) {
    const TimeRange seg = queue.front();
    queue.pop_front();
    if (seg.end - seg.start < 2) continue;
    const Timestamp mid = seg.start + (seg.end - seg.start) / 2;
    order.push_back(mid);
    queue.push_back({seg.start, mid});
    queue.push_back({mid, seg.end});
  }
  return order;
}

Timestamp NextBenchmarkPoint(Timestamp b, Timestamp next_data,
                             Timestamp hop) {
  // When b < next_data, b and the grid points after it below next_data
  // carry no data, and gap_last is the last of them; otherwise gap_last is
  // at most b. In 64 bits: a gap may span more than INT32_MAX ticks.
  const int64_t gap_last = b + (int64_t{next_data} - 1 - b) / hop * hop;
  return static_cast<Timestamp>(std::max(int64_t{b} + hop, gap_last));
}

std::vector<Timestamp> BenchmarkPoints(const std::vector<Timestamp>& ticks,
                                       int k) {
  std::vector<Timestamp> points;
  if (ticks.empty() || k < 2) return points;
  auto next = ticks.begin();  // the first data tick >= b
  for (Timestamp b = ticks.front(); b <= ticks.back();
       b = NextBenchmarkPoint(b, *next, k / 2)) {
    while (*next < b) ++next;
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
    SnapshotScratch* scratch, std::vector<ProvenRun>* proven,
    const ProofBook* book) {
  if (candidates.empty()) return std::vector<ObjectSet>{};
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

  // The surviving sets are pairwise disjoint: candidates intersect two
  // benchmark partitions, and ReCluster splits a set into disjoint
  // clusters. So the probe's one fetch per tick reads exactly the keys one
  // fetch per set would.
  struct Survivor {
    ObjectSet objects;
    std::span<const TimeRange> known;  ///< its proven ticks in the book
    bool candidate;  ///< one of the candidates, unsplit so far
  };
  const auto survivor = [&](ObjectSet objects, bool candidate) {
    std::span<const TimeRange> known;
    if (book != nullptr) known = book->Find(objects);
    return Survivor{std::move(objects), known, candidate};
  };
  std::vector<Survivor> surviving;
  for (const ObjectSet& c : candidates) surviving.push_back(survivor(c, true));
  TickProbe probe;
  std::vector<TickProbe::Ask> asks;
  std::vector<TickProbe::Answer> answers;
  for (Timestamp t : order) {
    asks.clear();
    for (const Survivor& s : surviving) {
      asks.push_back(TickProbe::Ask{&s.objects, s.known});
      scratch->probed_points += s.objects.size();
    }
    answers.resize(asks.size());
    K2_RETURN_NOT_OK(probe.Run(store, t, asks, params, scratch, answers));
    std::vector<Survivor> next;
    for (size_t i = 0; i < surviving.size(); ++i) {
      if (answers[i].whole) {
        next.push_back(std::move(surviving[i]));
        continue;
      }
      for (ObjectSet& c : answers[i].clusters) {
        next.push_back(survivor(std::move(c), false));
      }
    }
    surviving = std::move(next);
    if (surviving.empty()) return std::vector<ObjectSet>{};  // none spans
  }
  std::vector<ObjectSet> spanning;
  for (Survivor& s : surviving) {
    // An unsplit candidate was answered itself at every interior tick.
    if (s.candidate && proven != nullptr && b_right - b_left > 1) {
      proven->push_back(ProvenRun{s.objects, {b_left + 1, b_right - 1}});
    }
    spanning.push_back(std::move(s.objects));
  }
  std::sort(spanning.begin(), spanning.end());
  return spanning;
}

void SpanningConvoyMerger::AddWindow(Timestamp window_start,
                                     const std::vector<ObjectSet>& spanning,
                                     std::vector<Convoy>* died) {
  // Deaths of one window can dominate each other (active entries overlap);
  // deaths of different windows never can, so a per-window maximal set is
  // enough to reproduce the global merge result.
  MaximalConvoySet window_died;
  FoldCandidates(&active_, spanning, m_, window_start,
                 [&](const ObjectSet& set, Timestamp start) {
                   window_died.Insert(Convoy(set, start, window_start));
                 });
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

void WalkGroup::Start(const Convoy& seed) {
  Walk walk;
  walk.other_side = dir_ > 0 ? seed.start : seed.end;
  walk.next_t = dir_ > 0 ? seed.end + 1 : seed.start - 1;
  walk.branches.push_back(Branch{seed.objects, seed.objects.Hash()});
  walks_.push_back(std::move(walk));
  stale_ = true;
}

size_t WalkGroup::num_branches() const {
  size_t n = 0;
  for (const Walk& w : walks_) n += w.branches.size();
  return n;
}

Timestamp WalkGroup::next_tick() const {
  Timestamp t = kInvalidTimestamp;
  for (const Walk& w : walks_) {
    if (t == kInvalidTimestamp || (dir_ > 0 ? w.next_t < t : w.next_t > t)) {
      t = w.next_t;
    }
  }
  return t;
}

void WalkGroup::ReportRun(const Branch& branch, Timestamp last,
                          std::vector<ProvenRun>* proven) const {
  if (proven == nullptr || branch.proven_from == kInvalidTimestamp) return;
  proven->push_back(ProvenRun{
      branch.objects, dir_ > 0 ? TimeRange{branch.proven_from, last}
                               : TimeRange{last, branch.proven_from}});
}

void WalkGroup::Collect(Timestamp t, size_t walks, const ProofBook* book) {
  asks_.clear();
  ask_hashes_.clear();
  size_t branches = 0;
  for (const Walk& w : walks_) {
    if (w.next_t == t) branches += w.branches.size();
  }
  size_t size = 16;
  while (size < 2 * branches) size *= 2;
  constexpr uint32_t kEmpty = ~uint32_t{0};
  table_.assign(size, kEmpty);
  for (Walk& w : walks_) {
    if (w.next_t != t) continue;
    for (Branch& b : w.branches) {
      size_t slot = b.hash & (size - 1);
      while (table_[slot] != kEmpty &&
             (ask_hashes_[table_[slot]] != b.hash ||
              *asks_[table_[slot]].objects != b.objects)) {
        slot = (slot + 1) & (size - 1);
      }
      if (table_[slot] == kEmpty) {
        table_[slot] = static_cast<uint32_t>(asks_.size());
        asks_.push_back(TickProbe::Ask{
            &b.objects, book != nullptr ? book->Find(b.objects)
                                        : std::span<const TimeRange>()});
        ask_hashes_.push_back(b.hash);
      }
      b.ask = table_[slot];
    }
  }
  asked_walks_ = walks;
  stale_ = false;
}

void WalkGroup::Step(Walk* walk, Timestamp t,
                     std::vector<ProvenRun>* proven) {
  // A branch that found itself starts or continues its run.
  bool all_whole = true;
  for (Branch& b : walk->branches) {
    const bool whole = answers_[b.ask].whole;
    if (whole && b.proven_from == kInvalidTimestamp) b.proven_from = t;
    all_whole &= whole;
  }
  if (all_whole) return;  // nothing moves
  stale_ = true;
  std::vector<Branch> next;
  for (Branch& branch : walk->branches) {
    const TickProbe::Answer& answer = answers_[branch.ask];
    if (answer.whole) {
      next.push_back(std::move(branch));
      continue;
    }
    // Split-born children start unproven: only their parent was
    // re-clustered at t.
    for (const ObjectSet& c : answer.clusters) {
      next.push_back(Branch{c, c.Hash()});
    }
    // The branch could not be extended in its current shape: emit it.
    const Timestamp cur_end = t - dir_;
    ReportRun(branch, cur_end, proven);
    walk->done.push_back(
        dir_ > 0 ? Convoy(std::move(branch.objects), walk->other_side, cur_end)
                 : Convoy(std::move(branch.objects), cur_end,
                          walk->other_side));
  }
  // The branches stay pairwise disjoint (a split yields disjoint clusters
  // of one branch), so no two are equal; the order fixes the order in
  // which they are emitted.
  std::sort(next.begin(), next.end(), [](const Branch& a, const Branch& b) {
    return a.objects < b.objects;
  });
  walk->branches = std::move(next);
}

Status WalkGroup::Advance(Store* store, const MiningParams& params,
                          Timestamp upto, std::vector<Convoy>* completed,
                          SnapshotScratch* scratch,
                          std::vector<ProvenRun>* proven,
                          const ProofBook* book) {
  std::optional<SnapshotScratch> local_scratch;
  if (scratch == nullptr) scratch = &local_scratch.emplace();
  const auto before = [&](Timestamp a, Timestamp b) {
    return dir_ > 0 ? a < b : a > b;
  };
  stale_ = true;  // the book may have changed since the last call
  while (true) {
    // The earliest pending tick, and how many walks are there.
    Timestamp t = kInvalidTimestamp;
    size_t at_t = 0;
    for (const Walk& w : walks_) {
      if (w.branches.empty()) continue;
      if (at_t == 0 || before(w.next_t, t)) {
        t = w.next_t;
        at_t = 1;
      } else if (w.next_t == t) {
        ++at_t;
      }
    }
    if (at_t == 0 || before(upto, t)) break;
    // Walks only ever join the tick (a late walk catching up) or leave it
    // (a walk whose branches all died, which is a change too), so the
    // count tells whether asks_ still covers exactly the walks at t.
    if (stale_ || at_t != asked_walks_) Collect(t, at_t, book);
    answers_.resize(asks_.size());
    K2_RETURN_NOT_OK(probe_.Run(store, t, asks_, params, scratch, answers_));
    for (Walk& w : walks_) {
      if (w.branches.empty() || w.next_t != t) continue;
      for (const Branch& b : w.branches) {
        scratch->probed_points += b.objects.size();
      }
      Step(&w, t, proven);
      w.next_t += dir_;
    }
  }
  // Hand the pieces out walk by walk, and drop the walks that died.
  size_t keep = 0;
  for (size_t i = 0; i < walks_.size(); ++i) {
    Walk& w = walks_[i];
    for (Convoy& c : w.done) completed->push_back(std::move(c));
    w.done.clear();
    if (w.branches.empty()) continue;
    if (keep != i) walks_[keep] = std::move(w);
    ++keep;
  }
  if (keep != walks_.size()) stale_ = true;
  walks_.resize(keep);
  return Status::OK();
}

void WalkGroup::Flush(Timestamp limit, std::vector<Convoy>* completed,
                      std::vector<ProvenRun>* proven) {
  for (Walk& w : walks_) {
    for (Branch& branch : w.branches) {
      ReportRun(branch, w.next_t - dir_, proven);
      completed->push_back(
          dir_ > 0 ? Convoy(std::move(branch.objects), w.other_side, limit)
                   : Convoy(std::move(branch.objects), limit, w.other_side));
    }
  }
  walks_.clear();
  stale_ = true;
}

void WalkGroup::AddOpenRuns(ProofBook* book) const {
  for (const Walk& w : walks_) {
    for (const Branch& b : w.branches) {
      if (b.proven_from == kInvalidTimestamp) continue;
      const Timestamp last = w.next_t - dir_;
      book->Add(b.objects, dir_ > 0 ? TimeRange{b.proven_from, last}
                                    : TimeRange{last, b.proven_from});
    }
  }
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
/// spanning convoys of the window [benchmarks[w], benchmarks[w+1]]. HWMT
/// adds its proofs to `book` after the phase; it does not read the book,
/// which holds only earlier shards' HWMT runs and so never covers a tick
/// of this shard's windows. The phase times and window counters go to `s`.
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
  K2_RETURN_NOT_OK(ValidateTickRange(store->time_range(), params));
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
  const std::vector<Timestamp> benchmarks =
      BenchmarkPoints(store->timestamps(), params.k);
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

  // Close the fold. Its deaths are the maximal spanning convoys already:
  // deaths of different windows never dominate each other.
  Stopwatch sw;
  merger.Finish(benchmarks.back(), &died);
  std::vector<Convoy> merged = std::move(died);
  SortConvoys(&merged);
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
  s->reclusterings = slots.reclusterings();
  s->probed_points = slots.probed_points() + s->validation.probed_points;
  return result;
}

}  // namespace k2
