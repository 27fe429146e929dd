// k/2-hop — the paper's contribution (Sec. 4). Benchmark points every
// ⌊k/2⌋ ticks are fully clustered; everything else touches only candidate
// objects: candidate clusters (set-wise intersection of adjacent benchmark
// cluster sets), HWMT verification inside hop-windows, DCM merge across
// windows, right/left extension to exact lifespans, and recursive FC
// validation (core/validation.h).
//
// HWMT, the extension walks and FC validation re-cluster candidate sets one
// tick at a time through one probe path (core/tick_probe.h): a tick's sets
// are read with one fetch, each distinct set is re-clustered once, and a
// (t, S) that the run's ProofBook (core/proof_book.h) proves is answered
// {S} without a read. HWMT and the walks report as ProvenRuns only sets
// whose whole answer they hold as a result: HWMT the window interior of
// each candidate it kept unsplit, a walk the contiguous run of ticks on
// which a branch found itself (never its birth tick: a branch born from a
// split was only re-clustered as part of its parent there).
//
// MineK2Hop is the one batch miner. With K2HopOptions::num_shards > 1 it
// mines the timeline as contiguous time shards of hop-windows, the
// partition-and-merge design of the authors' DCM follow-up: each shard's
// benchmark clustering, candidate clusters and HWMT read only the shard's
// tick slice plus the boundary benchmarks it shares with its neighbours,
// and the spanning-convoy fold is stitched across the seams. The output is
// identical for every shard and thread count.
#ifndef K2_CORE_K2HOP_H_
#define K2_CORE_K2HOP_H_

#include <string>
#include <vector>

#include "baselines/sweep.h"
#include "cluster/store_clustering.h"
#include "common/convoy.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/types.h"
#include "core/proof_book.h"
#include "core/tick_probe.h"
#include "core/validation.h"
#include "storage/store.h"

namespace k2 {

struct K2HopOptions {
  /// HWMT probes hop-window ticks in binary-subdivision (farthest-first)
  /// order; false = naive left-to-right (ablation bench).
  bool hwmt_binary_order = true;
  /// Intersect adjacent benchmark cluster sets into candidate clusters
  /// (Lemma 5); false = feed benchmark clusters directly to HWMT and verify
  /// the right benchmark inside the window (ablation bench).
  bool candidate_pruning = true;
  /// Run the final FC validation; false stops after extension and returns
  /// the (partially connected) extended candidates.
  bool validate = true;
  /// Concurrent runners for every per-item phase: benchmark clustering,
  /// HWMT, right and left extension, and FC validation. Each runner reads
  /// the store through its own Store::CreateReadSnapshot handle, so reads
  /// are never serialized (an rdbms snapshot brings its own buffer pool).
  /// 0 = hardware_concurrency, except that small stores (< 64k points) run
  /// sequentially because the threads and snapshots cost more than they
  /// save there; 1 = sequential on the store itself; an explicit value > 1
  /// starts threads for each phase (common/parallel_for.h). Results and the
  /// Table-5 IO counters are identical for every thread count: per-item
  /// outputs are gathered by index and folded in order (see
  /// core/snapshot_slots.h).
  int num_threads = 0;
  /// Time shards of the benchmark grid (see PlanShards), mined in turn on
  /// the same runners; values below 1 mean 1. Convoys are identical for
  /// every count; each extra shard re-clusters one boundary benchmark.
  int num_shards = 1;
};

struct K2HopStats {
  /// Wall time per phase, in the paper's Fig. 8i vocabulary: "benchmark",
  /// "candidates", "HWMT", "merge", "extend-right", "extend-left",
  /// "validation", each summed over the shards.
  PhaseTimer phases;
  /// Grid points clustered (BenchmarkPoints); a shard boundary counts once.
  size_t benchmark_points = 0;
  size_t hop_windows = 0;
  size_t hop_windows_mined = 0;  ///< windows with a non-empty candidate set
  size_t candidate_clusters = 0;
  size_t spanning_convoys = 0;   ///< 1st-order spanning convoys (all windows)
  size_t merged_convoys = 0;     ///< maximal spanning convoys after merge
  size_t prevalidation_convoys = 0;  ///< Fig. 8j series
  size_t shards = 0;          ///< time shards mined (see PlanShards)
  size_t seams_crossed = 0;   ///< shard seams some spanning convoy crosses
  size_t stitch_replays = 0;  ///< shards whose fold continued carried state
  size_t adopted_folds = 0;   ///< shards whose fold started empty
  ValidationStats validation;
  /// ReCluster calls of the whole run: HWMT, both extension walks and
  /// validation (validation.reclusterings is its share).
  uint64_t reclusterings = 0;
  /// The paper's accounting of points processed outside benchmarks:
  /// Σ|S| over every (t, S) that HWMT, each walk's branches and each
  /// validated candidate asked, however it was answered (a proof, a shared
  /// answer or a read). Table 5 prints it beside points_processed().
  uint64_t probed_points = 0;
  IoStats io;               ///< store IO consumed by the run
  uint64_t total_points = 0;  ///< rows in the store

  /// The paper's "points processed" (Table 5), as this miner reads them: a
  /// union fetch reads a point once per (tick, group) however many of the
  /// group's sets hold it, and a proven (t, S) reads nothing. So this falls
  /// below probed_points, the paper's accounting, which reads every set
  /// asked at every tick.
  uint64_t points_processed() const { return io.points_read(); }
  /// Fraction of the dataset never touched (Table 5's pruning %).
  double pruning_ratio() const { return PruningRatio(io, total_points); }
  std::string DebugString() const;
};

/// Mines all maximal fully connected (m,eps)-convoys with lifespan >= k
/// (Algorithm 1). `stats` may be null; it is reset first. The store's ticks
/// must lie in (INT32_MIN, INT32_MAX - ⌊k/2⌋] (ValidateTickRange); any
/// other range is a kInvalid error.
Result<std::vector<Convoy>> MineK2Hop(Store* store, const MiningParams& params,
                                      const K2HopOptions& options = {},
                                      K2HopStats* stats = nullptr);

// --- individual phases, exposed for tests and ablations -------------------

/// HWMT's tick probe order: range endpoints first, then recursive
/// midpoints in BFS (level) order; every tick of the range appears exactly
/// once. "The chance of objects being coincidentally together in adjacent
/// timestamps is higher than ... in distant timestamps" (Sec. 4.3).
std::vector<Timestamp> BinarySubdivisionOrder(TimeRange range);

/// The benchmark grid start + i*⌊k/2⌋ over `ticks`, the store's data ticks
/// (Store::timestamps()), from the first through the last. Grid points
/// strictly between two consecutive data ticks carry no data; of a run of
/// three or more only the first, which closes the windows before the gap,
/// and the last, which opens the window after it, are kept. The windows in
/// between would have no candidates and nothing to merge. No convoy loses
/// a benchmark: it has data at every tick of its lifespan.
std::vector<Timestamp> BenchmarkPoints(const std::vector<Timestamp>& ticks,
                                       int k);

/// The grid point that follows benchmark `b`, given `next_data`, the first
/// data tick >= b, and the spacing `hop` = ⌊k/2⌋: b + hop, or, when b lies
/// in a gap, the gap's last grid point if that lies further.
Timestamp NextBenchmarkPoint(Timestamp b, Timestamp next_data, Timestamp hop);

/// Candidate clusters CC_i of one hop-window: pairwise intersections of the
/// adjacent benchmark cluster sets, keeping sets of size >= m (Sec. 4.2).
/// `right` must be pairwise disjoint (clusters of one tick always are) —
/// the implementation joins through an object-id -> right-cluster map in
/// O(total ids) instead of intersecting all pairs.
std::vector<ObjectSet> CandidateClusters(const std::vector<ObjectSet>& left,
                                         const std::vector<ObjectSet>& right,
                                         int m);

/// One time shard: a contiguous run of hop-windows of the benchmark grid.
struct ShardPlan {
  size_t first_window = 0;  ///< index into the global window sequence
  size_t num_windows = 0;
  /// Tick range the shard reads for its windows:
  /// [benchmarks[first_window], benchmarks[first_window + num_windows]].
  /// Adjacent shards share the boundary benchmark tick — each clusters it
  /// itself, which is the ⌊k/2⌋-aligned overlap margin that makes a shard
  /// self-contained.
  TimeRange ticks;

  size_t num_benchmarks() const { return num_windows + 1; }
};

/// Splits the `benchmarks.size() - 1` hop-windows into at most `num_shards`
/// contiguous shards with near-equal window counts (earlier shards take the
/// remainder). Fewer shards come back when there are fewer windows than
/// requested; an empty plan when there is no window at all.
std::vector<ShardPlan> PlanShards(const std::vector<Timestamp>& benchmarks,
                                  int num_shards);

/// HWMT (Algorithm 2): verifies candidates at every tick strictly inside
/// (b_left, b_right); when `verify_right_benchmark`, b_right is probed too
/// (used by the no-pruning ablation). Returns the surviving object sets.
/// The candidates must be pairwise disjoint, as the clusters of one tick
/// and their intersections are; then so are the sets surviving each tick.
/// Each probed tick goes through one TickProbe call: a set that `book`
/// (optional: the online miner's live book, which holds what the right
/// walks running ahead of the window proved) proves there is answered
/// without a read, and the others are read with one GetPoints call for
/// their union, so the store sees the same keys as one call per set would
/// make. `scratch` (optional) makes repeated calls allocation-free.
/// `proven` (optional) receives the interior [b_left + 1, b_right - 1] of
/// each candidate that survives unsplit, answered exactly itself there; a
/// survivor born from a split was not asked before its birth.
Result<std::vector<ObjectSet>> HwmtSpanning(
    Store* store, const MiningParams& params, Timestamp b_left,
    Timestamp b_right, const std::vector<ObjectSet>& candidates,
    bool binary_order = true, bool verify_right_benchmark = false,
    SnapshotScratch* scratch = nullptr,
    std::vector<ProvenRun>* proven = nullptr,
    const ProofBook* book = nullptr);

/// The DCM merge (Sec. 4.4): folds the spanning convoys of one closed
/// hop-window at a time, left to right, into maximal spanning convoys, one
/// FoldCandidates step (baselines/sweep.h) per window. A merged spanning
/// convoy is surfaced ("dies") the moment it fails to extend into the next
/// window, so the online miner can hand it to extension without waiting for
/// the rest of the stream. Feeding every window and then Finish() yields
/// the maximal spanning convoys with no further filter: dominance between
/// merged convoys can only occur between convoys dying at the same window,
/// and each window's deaths come out maximal. An earlier death can never
/// be dominated by a later one, because an object set that dies at window
/// w cannot have a superset still spanning w.
class SpanningConvoyMerger {
 public:
  explicit SpanningConvoyMerger(int m) : m_(m) {}

  /// Folds the window that starts at benchmark `window_start`; appends to
  /// `*died` the merged spanning convoys (maximal among this window's
  /// deaths) whose lifespan ends at `window_start`.
  void AddWindow(Timestamp window_start, const std::vector<ObjectSet>& spanning,
                 std::vector<Convoy>* died);

  /// Ends the fold: appends every still-active convoy, closed at the final
  /// benchmark point `last_benchmark`, to `*died`.
  void Finish(Timestamp last_benchmark, std::vector<Convoy>* died);

  /// Convoys still spanning the last folded window's right benchmark.
  size_t active_size() const { return active_.size(); }

 private:
  int m_;
  CandidateMap active_;  ///< spanning set -> earliest tick it spans since
};

/// Extension walks in lockstep (Algorithm 3 and its mirror — the inner
/// loop of ExtendRight / ExtendLeft). Start(seed) begins a walk: `dir` = +1
/// walks from seed.end toward larger ticks, -1 from seed.start toward
/// smaller ticks. A walk's branches are the object sets still clustering
/// together; at each tick the group asks its TickProbe once for every
/// distinct branch set of the walks there, so walks whose branches hold the
/// same objects share one answer and the tick is read with one fetch. A
/// lone walk is a group of one, and its answers are the same as in any
/// group: each (t, S) answer depends on the store and the book only.
///
/// Advance() consumes ticks up to a bound and may be called again with a
/// larger bound as more final ticks become available (the online miner
/// suspends its walks at the ingest frontier and resumes them per appended
/// tick). Start() may add walks between calls, also behind the others: the
/// group always probes the earliest pending tick, so a late walk catches
/// up alone and then moves with the rest. Branches whose objects stop
/// clustering together are appended to `*completed` as finished convoys,
/// walk by walk in start order; Flush() closes the surviving branches at
/// the dataset boundary.
///
/// When a branch ends (in Advance() or Flush()), the contiguous run of
/// ticks on which it found itself — its answer was exactly its own objects
/// — is appended to `*proven` (optional), if it has one. A branch born from
/// a split at tick t has not found itself at t. `book` (optional) is read,
/// never written, and must not change during an Advance() call.
class WalkGroup {
 public:
  explicit WalkGroup(int dir) : dir_(dir) {}

  void Start(const Convoy& seed);

  bool done() const { return walks_.empty(); }
  /// Walks with a live branch.
  size_t size() const { return walks_.size(); }
  size_t num_branches() const;
  /// The earliest tick (in walk order) that Advance() will probe;
  /// kInvalidTimestamp when done().
  Timestamp next_tick() const;

  /// Probes ticks through `upto` (inclusive, in walk direction), stopping
  /// early once every branch has died. Walks that died are dropped.
  Status Advance(Store* store, const MiningParams& params, Timestamp upto,
                 std::vector<Convoy>* completed,
                 SnapshotScratch* scratch = nullptr,
                 std::vector<ProvenRun>* proven = nullptr,
                 const ProofBook* book = nullptr);

  /// Closes every surviving branch at `limit` (the dataset boundary); the
  /// group is done() afterwards.
  void Flush(Timestamp limit, std::vector<Convoy>* completed,
             std::vector<ProvenRun>* proven = nullptr);

  /// Adds the run of every live branch that has found itself so far, from
  /// its first found tick through the last probed one, to `book`: the
  /// online miner's live book sees the walks' proofs before they end.
  void AddOpenRuns(ProofBook* book) const;

 private:
  struct Branch {
    ObjectSet objects;
    size_t hash = 0;  ///< objects.Hash(), for the per-tick deduplication
    /// First tick (in walk order) of the branch's current run of
    /// found-itself ticks; kInvalidTimestamp before the first one.
    Timestamp proven_from = kInvalidTimestamp;
    uint32_t ask = 0;  ///< index of its set in asks_
  };
  struct Walk {
    Timestamp other_side;  ///< fixed boundary on the non-walking side
    Timestamp next_t;
    std::vector<Branch> branches;  ///< live, disjoint, sorted by objects
    std::vector<Convoy> done;      ///< pieces not yet handed out
  };

  /// Rebuilds asks_: the distinct branch sets of the `walks` walks at `t`,
  /// with their proven ticks in `book`.
  void Collect(Timestamp t, size_t walks, const ProofBook* book);
  /// Applies the tick's answers to one walk at `t`.
  void Step(Walk* walk, Timestamp t, std::vector<ProvenRun>* proven);
  /// Appends the branch's run, which ends at `last`, to `*proven`.
  void ReportRun(const Branch& branch, Timestamp last,
                 std::vector<ProvenRun>* proven) const;

  int dir_;
  std::vector<Walk> walks_;  ///< in start order
  /// The distinct branch sets of the walks asked at the current tick. They
  /// stay valid while no branch set changes, no walk joins or leaves the
  /// tick, and the book does not change (so each Advance() starts anew).
  std::vector<TickProbe::Ask> asks_;
  std::vector<size_t> ask_hashes_;
  std::vector<TickProbe::Answer> answers_;
  std::vector<uint32_t> table_;  ///< open addressing over asks_
  size_t asked_walks_ = 0;       ///< walks whose branches asks_ holds
  bool stale_ = true;
  TickProbe probe_;
};

/// Algorithm 3 and its mirror: extends each convoy tick-by-tick until its
/// objects stop clustering together; splits continue as smaller convoys.
/// ExtendLeft's walks read `book` (optional) and add their proofs to it
/// afterwards, as the online miner's left walks do.
Result<std::vector<Convoy>> ExtendRight(Store* store,
                                        const MiningParams& params,
                                        const std::vector<Convoy>& convoys,
                                        Timestamp dataset_end);
Result<std::vector<Convoy>> ExtendLeft(Store* store, const MiningParams& params,
                                       const std::vector<Convoy>& convoys,
                                       Timestamp dataset_start,
                                       ProofBook* book = nullptr);

}  // namespace k2

#endif  // K2_CORE_K2HOP_H_
