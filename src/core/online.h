// Online / streaming k/2-hop mining. The batch miner (core/k2hop.h) assumes
// the whole trajectory history is loaded before mining starts; an
// operational store ingests movement data tick by tick instead. The
// OnlineK2HopMiner accepts ticks append-only, routes them through the
// store's Append path, and keeps the k/2-hop pipeline hot at the ingest
// frontier:
//
//   * the ⌊k/2⌋ benchmark schedule is maintained incrementally — a
//     benchmark snapshot is clustered the moment its tick becomes final;
//   * each hop-window is mined (CandidateClusters + HwmtSpanning) the
//     moment its right benchmark lands;
//   * spanning convoys fold through a SpanningConvoyMerger; merged convoys
//     that die start right-extension walks in one WalkGroup, which advances
//     all open walks in lockstep with the frontier and suspends them when
//     they catch up;
//   * a walk that completes strictly before the frontier yields convoys
//     whose left-extension and FC validation touch only final ticks, so
//     they are computed eagerly and emitted as *closed* convoys.
//
// Finalize() ends the stream: it flushes the merge and the suspended walks
// at the dataset boundary (their survivors are the *open*, still-alive
// convoys), passes each remaining right-extension result through the same
// left-extension and validation tail, and returns the maximal convoys among
// everything validation produced. Each of those is FC with lifespan >= k,
// and the walks are batch's walks run one seed at a time, so the returned
// convoy set is IDENTICAL to running batch MineK2Hop over the fully loaded
// store with the same parameters and default options (asserted by the
// streaming differential tests). The batch ablation switches (K2HopOptions)
// have no online counterpart.
//
// OnlineK2HopStats is its own type rather than K2HopStats: it adds the
// ingest side (ticks, points, per-tick latency, ingest vs. mining IO) and
// the eager channel's walk and convoy counts.
#ifndef K2_CORE_ONLINE_H_
#define K2_CORE_ONLINE_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/running_stat.h"
#include "core/k2hop.h"

namespace k2 {

struct OnlineK2HopOptions {
  /// Invoked once per closed convoy as it is discovered. A closed convoy is
  /// not always final: a convoy whose lifespan ends later may subsume it.
  /// On Trucks streams at k=30 that holds for 3-4% of the emissions (14 of
  /// 549 over 1,800 ticks, 163 of 4,344 over 14,400). Finalize() resolves
  /// such dominance, so its result is the authoritative set.
  std::function<void(const Convoy&)> on_closed;
};

struct OnlineK2HopStats {
  /// Wall time per phase, same vocabulary as K2HopStats ("benchmark",
  /// "candidates", "HWMT", "merge", "extend-right", "extend-left",
  /// "validation") plus "ingest" for Store::Append.
  PhaseTimer phases;
  size_t ticks_ingested = 0;
  uint64_t points_ingested = 0;
  size_t empty_ticks = 0;  ///< AppendTick calls with no points (no-ops)
  size_t benchmark_points = 0;  ///< grid points clustered (BenchmarkPoints)
  size_t hop_windows = 0;
  size_t hop_windows_mined = 0;
  size_t candidate_clusters = 0;
  size_t spanning_convoys = 0;
  size_t merged_convoys = 0;
  size_t walks_started = 0;
  size_t open_walks_peak = 0;  ///< most walks ever suspended at the frontier
  size_t closed_convoys = 0;   ///< emitted through the eager channel
  size_t open_convoys = 0;     ///< walk branches still alive at Finalize()
  ValidationStats validation;
  /// Per-AppendTick wall time (the amortized ingest+mine cost per tick).
  RunningStat append_latency;
  /// Tail view of the same per-tick latencies (p50/p99/p999); exact up to
  /// 4096 ticks, a uniform reservoir estimate beyond.
  PercentileReservoir append_percentiles;
  /// Store IO split by cause: Append calls vs. mining reads.
  IoStats ingest_io;
  IoStats mining_io;
  uint64_t total_points = 0;  ///< rows ingested

  uint64_t points_processed() const { return mining_io.points_read(); }
  /// Fraction of the ingested data never touched by mining reads.
  double pruning_ratio() const { return PruningRatio(mining_io, total_points); }
  std::string DebugString() const;
};

/// Incremental miner over an append-only store. Single-threaded; the store
/// must be empty at construction and be mutated only through AppendTick for
/// the lifetime of the miner (see the Store thread-safety contract).
class OnlineK2HopMiner {
 public:
  /// `store` is borrowed and must outlive the miner.
  OnlineK2HopMiner(Store* store, const MiningParams& params,
                   OnlineK2HopOptions options = {});

  /// Ingests the complete snapshot of tick `t` (all points observed at
  /// `t`, any order; normalized internally). `t` must be strictly greater
  /// than every previously appended tick and lie in (INT32_MIN,
  /// INT32_MAX - ⌊k/2⌋] (ValidateTickRange); gaps are allowed and mean "no
  /// object reported during those ticks". An empty `points` is a no-op.
  /// A tick out of order or out of range is rejected with kInvalid and
  /// leaves the miner usable. Other errors are sticky: once an append or a
  /// mining step fails, the miner refuses further work.
  Status AppendTick(Timestamp t, std::vector<SnapshotPoint> points);

  /// Ends the stream and returns the complete convoy set — equal to batch
  /// MineK2Hop over the same data and parameters. Idempotent; AppendTick
  /// is rejected afterwards. Convoys still alive at the frontier ("open")
  /// are closed at the final tick and included.
  Result<std::vector<Convoy>> Finalize();

  bool finalized() const { return final_result_.has_value(); }
  /// Latest ingested tick, or kInvalidTimestamp before the first append.
  Timestamp frontier() const { return frontier_; }
  /// Right-extension walks currently suspended at the frontier.
  size_t open_walks() const { return walks_.size(); }
  /// Convoys emitted through the eager channel so far, in emission order.
  const std::vector<Convoy>& closed_convoys() const { return closed_; }
  const OnlineK2HopStats& stats() const { return stats_; }

 private:
  /// Clusters every due benchmark and advances the walks to the frontier.
  Status Drain();
  Status ProcessBenchmark(Timestamp b);
  /// Mines the hop-window [b_left, b_right] and folds it into the merge.
  Status CloseWindow(Timestamp b_left, Timestamp b_right,
                     const std::vector<ObjectSet>& left,
                     const std::vector<ObjectSet>& right);
  Status AdvanceWalks(Timestamp upto);
  /// Flushes the merge and the walks at the end of the stream.
  Status FlushStream();
  /// Runs a new completed right-extension result through left extension
  /// and validation, and records the validated convoys (emitted as closed
  /// outside Finalize()).
  Status OnRightResult(Convoy r);
  /// Records a validated convoy; a new one is emitted as closed outside
  /// Finalize().
  void Emit(const Convoy& validated);
  /// The per-convoy tails of the pipeline; they read only final ticks.
  Result<std::vector<Convoy>> LeftPieces(const Convoy& r);
  Result<std::vector<Convoy>> ValidatedPieces(const Convoy& f);

  /// Runs `fn`, charging its wall time to `phase` and its store IO to
  /// stats_.mining_io.
  Status Mined(const char* phase, const std::function<Status()>& fn);

  Store* store_;
  MiningParams params_;
  OnlineK2HopOptions options_;
  Timestamp hop_ = 1;

  Status status_ = Status::OK();  ///< sticky failure state
  Timestamp start_ = kInvalidTimestamp;
  Timestamp frontier_ = kInvalidTimestamp;
  Timestamp next_benchmark_ = kInvalidTimestamp;
  Timestamp prev_benchmark_ = kInvalidTimestamp;
  std::vector<ObjectSet> prev_benchmark_clusters_;

  SpanningConvoyMerger merger_;
  WalkGroup walks_{+1};  ///< every open right walk, in start order
  /// Every completed right-extension result so far: each goes through the
  /// tail once.
  std::set<Convoy> right_seen_;
  /// What HWMT, the walks and validation proved so far, read and written
  /// live (the live right walks' runs so far are added before each HWMT).
  ProofBook book_;

  std::vector<Convoy> closed_;
  /// Every convoy validation produced, Finalize()'s included.
  std::set<Convoy> validated_;

  SnapshotScratch scratch_;
  OnlineK2HopStats stats_;
  bool finalizing_ = false;  ///< silences the eager channel during Finalize
  std::optional<std::vector<Convoy>> final_result_;
};

}  // namespace k2

#endif  // K2_CORE_ONLINE_H_
