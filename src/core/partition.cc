#include "core/partition.h"

#include <algorithm>
#include <sstream>
#include <thread>
#include <utility>

#include "core/snapshot_slots.h"

namespace k2 {

std::string PartitionedK2HopStats::DebugString() const {
  std::ostringstream os;
  os << "PartitionedK2HopStats{shards=" << shards
     << ", windows=" << hop_windows << ", seams=" << seams << " (crossed "
     << seams_crossed << ")"
     << ", adopted_folds=" << adopted_folds
     << ", stitch_replays=" << stitch_replays
     << ", spanning=" << spanning_convoys << ", merged=" << merged_convoys
     << ", prevalidation=" << prevalidation_convoys
     << ", points_processed=" << points_processed() << "/" << total_points
     << " (pruned " << pruning_ratio() * 100.0 << "%)}";
  return os.str();
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

PartitionedK2HopMiner::PartitionedK2HopMiner(Store* store,
                                             const MiningParams& params,
                                             PartitionedK2HopOptions options)
    : store_(store), params_(params), options_(options) {}

Result<std::vector<Convoy>> PartitionedK2HopMiner::Mine() {
  K2_RETURN_NOT_OK(ValidateMiningParams(params_));
  stats_ = PartitionedK2HopStats();
  stats_.total_points = store_->num_points();

  const TimeRange range = store_->time_range();
  if (range.length() < params_.k) return std::vector<Convoy>{};

  // --- plan: shard the benchmark grid, set up the per-slot snapshots ----
  Stopwatch sw;
  const std::vector<Timestamp> benchmarks =
      BenchmarkPoints(range, params_.k);
  stats_.benchmark_points = benchmarks.size();

  const int threads =
      options_.num_threads > 0
          ? options_.num_threads
          : std::max(1,
                     static_cast<int>(std::thread::hardware_concurrency()));
  const int want_shards =
      options_.num_shards > 0 ? options_.num_shards : threads;
  const std::vector<ShardPlan> plan = PlanShards(benchmarks, want_shards);
  if (plan.empty()) return std::vector<Convoy>{};
  stats_.shards = plan.size();
  stats_.hop_windows = benchmarks.size() - 1;
  stats_.seams = plan.size() - 1;

  // One read snapshot per concurrent runner: shards (and later per-convoy
  // walks and validation checks) on different slots never share a store
  // handle, so they fetch concurrently. Snapshots open on a slot's first
  // task, so idle slots (more cores than shards) cost nothing.
  SnapshotSlots slots(store_, threads);
  stats_.phases.Add("plan", sw.ElapsedSeconds());

  // --- shards: full per-window pipeline + local DCM merge, concurrently --
  sw.Restart();
  K2HopOptions shard_options;
  shard_options.hwmt_binary_order = options_.hwmt_binary_order;
  shard_options.candidate_pruning = options_.candidate_pruning;
  std::vector<std::vector<std::vector<ObjectSet>>> spanning(plan.size());
  std::vector<std::vector<Convoy>> local_died(plan.size());
  std::vector<SpanningConvoyMerger::StartMap> local_active(plan.size());
  stats_.shard_runs.assign(plan.size(), {});
  K2_RETURN_NOT_OK(slots.ForEach(
      plan.size(), [&](SnapshotSlots::Slot& slot, size_t i) -> Status {
        Stopwatch shard_sw;
        const ShardPlan& shard = plan[i];
        ShardRunStats& run = stats_.shard_runs[i];
        run.ticks = shard.ticks;
        // The shard runs sequentially on its slot's store handle.
        SnapshotSlots shard_slots(slot.store, 1);
        const std::span<const Timestamp> shard_benchmarks(
            benchmarks.data() + shard.first_window, shard.num_benchmarks());
        K2_RETURN_NOT_OK(MineHopWindows(&shard_slots, params_,
                                        shard_benchmarks, shard_options,
                                        &spanning[i], &run.pipeline));
        // Local DCM merge. The fold starts empty, so deaths are only
        // locally maximal and starts are only locally earliest; the stitch
        // below decides whether that local view is globally valid (nothing
        // crossed the left seam) or must be replayed. Entries still
        // spanning the right boundary are exported, not closed.
        SpanningConvoyMerger merger(params_.m);
        for (size_t w = 0; w < shard.num_windows; ++w) {
          merger.AddWindow(shard_benchmarks[w], spanning[i][w],
                           &local_died[i]);
        }
        local_active[i] = merger.TakeActive();
        run.local_merged = local_died[i].size();
        run.seam_active = local_active[i].size();
        run.seconds = shard_sw.ElapsedSeconds();
        run.io = shard_slots.io();
        return Status::OK();
      }));
  for (const ShardRunStats& run : stats_.shard_runs) {
    stats_.spanning_convoys += run.pipeline.spanning_convoys;
  }
  stats_.phases.Add("shards", sw.ElapsedSeconds());

  // --- stitch: carry the spanning-convoy fold across the seams ----------
  // Invariant: entering shard i, `global` holds the true fold state of all
  // windows left of the shard. When that state is empty, the shard's local
  // fold (which started empty) IS the global fold over its windows — its
  // deaths and exported active map are adopted wholesale, an O(1) seam.
  // Otherwise convoys cross the seam: their continuations are intersection
  // chains the local fold cannot see (and the local fold's own entries may
  // inherit earlier starts from them), so the shard's windows are replayed
  // through the global merger — pure set algebra over the already-mined
  // spanning sets, no store IO.
  sw.Restart();
  std::vector<Convoy> died;
  SpanningConvoyMerger global(params_.m);
  for (size_t i = 0; i < plan.size(); ++i) {
    if (global.active_size() == 0) {
      ++stats_.adopted_folds;
      for (Convoy& v : local_died[i]) died.push_back(std::move(v));
      global.SetActive(std::move(local_active[i]));
    } else {
      ++stats_.stitch_replays;
      const ShardPlan& shard = plan[i];
      for (size_t w = 0; w < shard.num_windows; ++w) {
        global.AddWindow(benchmarks[shard.first_window + w], spanning[i][w],
                         &died);
      }
    }
    if (i + 1 < plan.size() && global.active_size() > 0) {
      ++stats_.seams_crossed;
    }
  }
  global.Finish(benchmarks.back(), &died);
  // First batch maximality barrier (the one inside MergeSpanningConvoys).
  MaximalConvoySet merged_set;
  for (Convoy& v : died) merged_set.Insert(std::move(v));
  std::vector<Convoy> merged = merged_set.TakeSorted();
  stats_.merged_convoys = merged.size();
  stats_.phases.Add("stitch", sw.ElapsedSeconds());

  // --- extension and validation: per-convoy, concurrently --------------
  // Walks read arbitrary ticks through the slot's snapshot and freely cross
  // shard seams; the folds replay the batch barriers in seed order.
  sw.Restart();
  K2_ASSIGN_OR_RETURN(merged, slots.Extend(params_, merged, range.end, +1));
  stats_.phases.Add("extend-right", sw.ElapsedSeconds());
  sw.Restart();
  K2_ASSIGN_OR_RETURN(merged,
                      slots.Extend(params_, merged, range.start, -1));
  merged = FilterMinLength(std::move(merged), params_.k);
  stats_.phases.Add("extend-left", sw.ElapsedSeconds());
  stats_.prevalidation_convoys = merged.size();

  std::vector<Convoy> result;
  if (options_.validate) {
    sw.Restart();
    K2_ASSIGN_OR_RETURN(result, slots.Validate(params_, std::move(merged),
                                               &stats_.validation));
    stats_.phases.Add("validation", sw.ElapsedSeconds());
  } else {
    result = std::move(merged);
  }
  stats_.io = slots.io();
  return result;
}

// k2-lint: allow(validate-mining-params): the wrapped
// PartitionedK2HopMiner::Mine() validates as its first statement.
Result<std::vector<Convoy>> MinePartitionedK2Hop(
    Store* store, const MiningParams& params,
    const PartitionedK2HopOptions& options, PartitionedK2HopStats* stats) {
  PartitionedK2HopMiner miner(store, params, options);
  auto result = miner.Mine();
  if (stats != nullptr) *stats = miner.stats();
  return result;
}

}  // namespace k2
