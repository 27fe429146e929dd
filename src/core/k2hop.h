// k/2-hop — the paper's contribution (Sec. 4). Benchmark points every
// ⌊k/2⌋ ticks are fully clustered; everything else touches only candidate
// objects: candidate clusters (set-wise intersection of adjacent benchmark
// cluster sets), HWMT verification inside hop-windows, DCM merge across
// windows, right/left extension to exact lifespans, and recursive FC
// validation.
//
// HWMT and the extension walks re-cluster candidate sets anyway, and every
// call that returns exactly {S} proves S connected at that tick. They
// report these proofs as ProvenRuns: HWMT the window interior of each
// candidate that never split, a walk the contiguous run of ticks on which
// a branch found itself (never its birth tick: a branch born from a split
// was only re-clustered as part of its parent there). The run's ProofBook
// (core/proof_book.h) collects them, and FC validation skips the proven
// ticks.
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
#include <unordered_map>
#include <vector>

#include "baselines/validation.h"
#include "cluster/store_clustering.h"
#include "common/convoy.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/types.h"
#include "core/proof_book.h"
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
  size_t benchmark_points = 0;  ///< the grid; a shard boundary counts once
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
  IoStats io;               ///< store IO consumed by the run
  uint64_t total_points = 0;  ///< rows in the store

  /// The paper's "points processed" (Table 5). Validation reads that a
  /// proof made unnecessary (ValidationStats::proven_ticks) are not
  /// counted, so this falls below what the paper's accounting, which reads
  /// every validated tick, would give.
  uint64_t points_processed() const { return io.points_read(); }
  /// Fraction of the dataset never touched (Table 5's pruning %).
  double pruning_ratio() const { return PruningRatio(io, total_points); }
  std::string DebugString() const;
};

/// Mines all maximal fully connected (m,eps)-convoys with lifespan >= k
/// (Algorithm 1). `stats` may be null; it is reset first.
Result<std::vector<Convoy>> MineK2Hop(Store* store, const MiningParams& params,
                                      const K2HopOptions& options = {},
                                      K2HopStats* stats = nullptr);

// --- individual phases, exposed for tests and ablations -------------------

/// Benchmark ticks start + i*⌊k/2⌋ covering the store's range.
std::vector<Timestamp> BenchmarkPoints(TimeRange range, int k);

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
/// Each probed tick is read with one GetPoints call for the union of the
/// surviving sets, and each set is re-clustered from that fetch, so the
/// store sees the same keys as one call per set would make.
/// `scratch` (optional) makes repeated calls allocation-free. `proven`
/// (optional) receives one run per candidate that survives whole: it was
/// re-clustered to exactly itself at every probed tick.
Result<std::vector<ObjectSet>> HwmtSpanning(
    Store* store, const MiningParams& params, Timestamp b_left,
    Timestamp b_right, const std::vector<ObjectSet>& candidates,
    bool binary_order = true, bool verify_right_benchmark = false,
    SnapshotScratch* scratch = nullptr,
    std::vector<ProvenRun>* proven = nullptr);

/// DCM merge (Sec. 4.4): folds per-window spanning convoys left to right
/// into maximal spanning convoys. `spanning[i]` spans
/// [benchmarks[i], benchmarks[i+1]].
std::vector<Convoy> MergeSpanningConvoys(
    const std::vector<std::vector<ObjectSet>>& spanning,
    const std::vector<Timestamp>& benchmarks, int m);

/// Incremental form of the DCM merge: feed the spanning convoys of one
/// closed hop-window at a time, left to right. A merged spanning convoy is
/// surfaced ("dies") the moment it fails to extend into the next window, so
/// the online miner can hand it to extension without waiting for the rest
/// of the stream. Feeding every window and then Finish() yields exactly the
/// convoy set of MergeSpanningConvoys (which is implemented on top of this
/// class): dominance between merged convoys can only occur between convoys
/// dying at the same window — an earlier death can never be dominated by a
/// later one, because an object set that dies at window w cannot have a
/// superset still spanning w.
class SpanningConvoyMerger {
 public:
  /// Object set -> earliest tick the set has been spanning since.
  using StartMap = std::unordered_map<ObjectSet, Timestamp, ObjectSetHash>;

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
  StartMap active_;
};

/// Resumable tick-by-tick extension of one convoy (Algorithm 3 and its
/// mirror — the inner loop of ExtendRight / ExtendLeft). `dir` = +1 walks
/// from seed.end toward larger ticks, -1 from seed.start toward smaller
/// ticks. Advance() consumes ticks up to a bound and may be called again
/// with a larger bound as more final ticks become available (the online
/// miner suspends right-walks at the ingest frontier and resumes them per
/// appended tick). Branches whose objects stop clustering together are
/// appended to `*completed` as finished convoys; Flush() closes the
/// surviving branches at the dataset boundary.
///
/// When a branch ends (in Advance() or Flush()), the contiguous run of
/// ticks on which it found itself — ReCluster returned exactly its own
/// objects — is appended to `*proven` (optional), if it has one. A branch
/// born from a split at tick t has not found itself at t.
class ConvoyExtensionWalk {
 public:
  ConvoyExtensionWalk(const Convoy& seed, int dir);

  bool done() const { return frontier_.empty(); }
  /// The next tick Advance() will probe.
  Timestamp next_tick() const { return next_t_; }
  size_t num_branches() const { return frontier_.size(); }

  /// Probes ticks from next_tick() through `upto` (inclusive, in walk
  /// direction), stopping early once every branch has died.
  Status Advance(Store* store, const MiningParams& params, Timestamp upto,
                 std::vector<Convoy>* completed,
                 SnapshotScratch* scratch = nullptr,
                 std::vector<ProvenRun>* proven = nullptr);

  /// Closes every surviving branch at `limit` (the dataset boundary); the
  /// walk is done() afterwards.
  void Flush(Timestamp limit, std::vector<Convoy>* completed,
             std::vector<ProvenRun>* proven = nullptr);

 private:
  struct Branch {
    ObjectSet objects;
    /// First tick (in walk order) of the branch's current run of
    /// found-itself ticks; kInvalidTimestamp before the first one.
    Timestamp proven_from = kInvalidTimestamp;
  };

  /// Appends the branch's run, which ends at `last`, to `*proven`.
  void ReportRun(const Branch& branch, Timestamp last,
                 std::vector<ProvenRun>* proven) const;

  int dir_;
  Timestamp other_side_;  ///< fixed boundary on the non-walking side
  Timestamp next_t_;
  std::vector<Branch> frontier_;  ///< live branches, sorted by objects
};

/// Algorithm 3 and its mirror: extends each convoy tick-by-tick until its
/// objects stop clustering together; splits continue as smaller convoys.
/// ExtendLeft adds the walks' proofs to `book` (optional), as the online
/// miner's left walks do.
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
