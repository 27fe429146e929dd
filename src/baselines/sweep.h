// The per-timestamp candidate sweep shared by PCCD, VCoDA, DCM partitions
// and the validation fallback: given the clusters of every tick, maintain
// candidate convoys by intersecting them with the clusters of the next tick
// and emit candidates that can no longer be extended (Yoon & Shahabi's
// corrected candidate maintenance — every cluster always opens a fresh
// candidate, which is the fix over CMC).
#ifndef K2_BASELINES_SWEEP_H_
#define K2_BASELINES_SWEEP_H_

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/convoy.h"
#include "common/object_set.h"
#include "common/status.h"
#include "common/types.h"

namespace k2 {

/// Supplies the (m,eps)-clusters of tick `t` (empty vector for a tick
/// without data).
using ClustersAtFn =
    std::function<Status(Timestamp t, std::vector<ObjectSet>* clusters)>;

class Dataset;

/// ClustersAtFn over an in-memory dataset (no store IO). The dataset must
/// outlive the callable; safe for concurrent use from several threads.
ClustersAtFn DatasetClustersFn(const Dataset* dataset,
                               const MiningParams& params);

struct SweepOptions {
  /// Minimum lifespan of emitted convoys.
  int min_length = 2;
  /// Additionally keep convoys that touch the left/right edge of the range
  /// regardless of length — required by DCM partitions, whose border pieces
  /// are merged with neighbouring partitions later.
  bool keep_left_border = false;
  bool keep_right_border = false;
};

/// Active candidates: object set -> earliest start tick. Keeping only the
/// earliest start per set is sound because a later-started duplicate is
/// always a sub-convoy of the earlier one.
using CandidateMap = std::unordered_map<ObjectSet, Timestamp, ObjectSetHash>;

/// One step of the candidate fold, which the sweep runs per tick and the
/// DCM merge (SpanningConvoyMerger) per hop-window: intersects each active
/// set with every cluster, keeps each intersection of >= m objects at its
/// earliest start, calls `died(set, start)`, in no particular order, for
/// each active set that no cluster holds whole, and opens a candidate at
/// `now` for every cluster of >= m objects.
void FoldCandidates(
    CandidateMap* active, const std::vector<ObjectSet>& clusters, int m,
    Timestamp now,
    const std::function<void(const ObjectSet& set, Timestamp start)>& died);

/// Mines all maximal convoys inside `range` (every tick in the range is
/// consulted; ticks without clusters terminate every candidate). The result
/// is maximal (no element is a sub-convoy of another) and canonically
/// sorted.
Result<std::vector<Convoy>> MaximalConvoySweep(const ClustersAtFn& clusters_at,
                                               TimeRange range, int m,
                                               const SweepOptions& options);

/// The same sweep, consulting `clusters_at` only at the ticks of `ticks`
/// (ascending; the ticks with data) that lie in `range`. Every other tick
/// has no clusters, so a run of them is folded once, as one empty tick
/// that terminates every candidate: the cost follows the data ticks, not
/// the length of the range.
Result<std::vector<Convoy>> MaximalConvoySweep(const ClustersAtFn& clusters_at,
                                               std::span<const Timestamp> ticks,
                                               TimeRange range, int m,
                                               const SweepOptions& options);

}  // namespace k2

#endif  // K2_BASELINES_SWEEP_H_
