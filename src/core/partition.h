// Time-sharded partitioned k/2-hop mining. The pipeline is embarrassingly
// parallel across the timeline once spanning convoys can be stitched back
// together (the partition-and-merge idea of the authors' DCM follow-up):
// the ⌊k/2⌋ benchmark grid is split into P contiguous shards of hop-windows,
// each shard runs the full per-window pipeline (benchmark clustering,
// candidate clusters, HWMT, local DCM merge) against its own read snapshot
// of the store, and a sequential stitch walks the shard seams, carrying the
// spanning-convoy fold state across boundaries. Extension walks and FC
// validation then fan out over the same slots as in batch MineK2Hop (see
// core/snapshot_slots.h), and the batch maximality barriers are replayed
// over the gathered results — the output is byte-identical to batch
// MineK2Hop for every shard and thread count (asserted by the partitioned
// differential suite).
//
// A shard is the distribution unit: it touches only its own tick slice
// (plus the shared boundary benchmarks) through a self-contained store
// handle, so moving a shard to another process needs nothing but its plan
// entry and the seam exchange of (spanning sets, active fold state).
#ifndef K2_CORE_PARTITION_H_
#define K2_CORE_PARTITION_H_

#include <memory>
#include <string>
#include <vector>

#include "core/k2hop.h"

namespace k2 {

struct PartitionedK2HopOptions {
  /// Number of time shards; 0 = one per worker thread. Always clamped to
  /// the number of hop-windows (a shard mines at least one window).
  int num_shards = 0;
  /// Worker threads driving shards and per-convoy extension/validation;
  /// 0 = hardware_concurrency, 1 = sequential (still sharded and stitched,
  /// which is what the differential suite exercises).
  int num_threads = 0;
  /// Same ablation switches as K2HopOptions; keep them equal to the batch
  /// run being compared against.
  bool hwmt_binary_order = true;
  bool candidate_pruning = true;
  bool validate = true;
};

/// One shard of the plan: a contiguous run of hop-windows of the global
/// benchmark grid.
struct ShardPlan {
  size_t first_window = 0;  ///< index into the global window sequence
  size_t num_windows = 0;
  /// Tick range the shard reads for its windows:
  /// [benchmarks[first_window], benchmarks[first_window + num_windows]].
  /// Adjacent shards share the boundary benchmark tick — each re-clusters
  /// it independently, which is the ⌊k/2⌋-aligned overlap margin that
  /// makes shards self-contained.
  TimeRange ticks;

  size_t num_benchmarks() const { return num_windows + 1; }
};

/// Splits the `benchmarks.size() - 1` hop-windows into at most `num_shards`
/// contiguous shards with near-equal window counts (earlier shards take the
/// remainder). Fewer shards come back when there are fewer windows than
/// requested; an empty plan when there is no window at all.
std::vector<ShardPlan> PlanShards(const std::vector<Timestamp>& benchmarks,
                                  int num_shards);

/// Per-shard outcome, for the bench tables and seam diagnostics.
struct ShardRunStats {
  TimeRange ticks;
  HopWindowPipelineStats pipeline;
  size_t local_merged = 0;  ///< convoys that died inside the shard's fold
  size_t seam_active = 0;   ///< fold entries still spanning the right seam
  double seconds = 0.0;     ///< shard wall time (overlaps other shards)
  IoStats io;               ///< IO through the shard's snapshot
};

struct PartitionedK2HopStats {
  /// Wall time per phase: "plan" (planning + snapshot setup), "shards"
  /// (the concurrent per-shard pipelines, wall not CPU), "stitch",
  /// "extend-right", "extend-left", "validation".
  PhaseTimer phases;
  size_t shards = 0;
  size_t benchmark_points = 0;  ///< global grid size
  size_t hop_windows = 0;
  size_t seams = 0;          ///< shard boundaries (shards - 1)
  size_t seams_crossed = 0;  ///< seams with a convoy spanning them
  size_t stitch_replays = 0; ///< shards replayed through the global fold
  size_t adopted_folds = 0;  ///< shards whose local fold was adopted as-is
  size_t spanning_convoys = 0;
  size_t merged_convoys = 0;
  size_t prevalidation_convoys = 0;
  ValidationStats validation;
  /// Store IO: parent-store delta plus every snapshot's own counters
  /// (excluding snapshot setup), so Table-5 style pruning numbers stay
  /// comparable with the batch miner.
  IoStats io;
  uint64_t total_points = 0;
  std::vector<ShardRunStats> shard_runs;

  uint64_t points_processed() const { return io.points_read(); }
  double pruning_ratio() const { return PruningRatio(io, total_points); }
  std::string DebugString() const;
};

/// Mines all maximal fully connected (m,eps)-convoys with lifespan >= k by
/// sharding the timeline. Byte-identical to MineK2Hop over the same store
/// and parameters for every option combination.
class PartitionedK2HopMiner {
 public:
  /// `store` is borrowed and must outlive the miner; it must not be
  /// mutated while Mine() runs (snapshots of it are live).
  PartitionedK2HopMiner(Store* store, const MiningParams& params,
                        PartitionedK2HopOptions options = {});

  /// Runs the partitioned pipeline once. May be called repeatedly (each
  /// call resets the stats).
  Result<std::vector<Convoy>> Mine();

  const PartitionedK2HopStats& stats() const { return stats_; }

 private:
  Store* store_;
  MiningParams params_;
  PartitionedK2HopOptions options_;
  PartitionedK2HopStats stats_;
};

/// Convenience one-shot wrapper; `stats` may be null.
Result<std::vector<Convoy>> MinePartitionedK2Hop(
    Store* store, const MiningParams& params,
    const PartitionedK2HopOptions& options = {},
    PartitionedK2HopStats* stats = nullptr);

}  // namespace k2

#endif  // K2_CORE_PARTITION_H_
