// Fully-connected-convoy validation (paper Sec. 4.6 / Algorithm 4). A
// candidate (O, T) is FC iff the dataset restricted to O clusters to exactly
// {O} at every tick of T. The checker probes ticks in binary-subdivision
// order (the HWMT* fast path); when the check fails it falls back to an
// exact sweep over the restriction and recurses on the resulting pieces —
// the paper's correction of DCVal. `recursive = false` reproduces the
// original one-pass DCVal (Yoon & Shahabi), which can emit non-FC convoys
// because split results are not re-validated.
//
// A check may be handed the ticks at which the candidate's object set O is
// already proven connected: ticks where an earlier ReCluster(t, O) returned
// exactly {O}. It answers those ticks with {O} without a store read; every
// other tick is re-clustered. Only an exact {O} answer is a proof — a
// cluster equal to O that came out of re-clustering a superset of O is not.
#ifndef K2_BASELINES_VALIDATION_H_
#define K2_BASELINES_VALIDATION_H_

#include <functional>
#include <span>
#include <vector>

#include "cluster/clusterer.h"
#include "common/convoy.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/store.h"

namespace k2 {

/// Tick probe order of HWMT*: range endpoints first, then recursive
/// midpoints in BFS (level) order; every tick of the range appears exactly
/// once. "The chance of objects being coincidentally together in adjacent
/// timestamps is higher than ... in distant timestamps" (Sec. 4.3).
std::vector<Timestamp> BinarySubdivisionOrder(TimeRange range);

struct ValidationStats {
  size_t candidates_in = 0;
  size_t fc_accepted = 0;     ///< candidates that passed unchanged
  size_t split_rounds = 0;    ///< fallback sweeps executed
  size_t reclusterings = 0;   ///< restricted DBSCAN runs
  size_t proven_ticks = 0;    ///< ticks a proof answered without a read
};

/// Reduces `candidates` to the maximal fully connected convoys they
/// contain. All data access goes through `store` point reads.
Result<std::vector<Convoy>> ValidateFullyConnected(
    Store* store, std::vector<Convoy> candidates, const MiningParams& params,
    bool recursive = true, ValidationStats* stats = nullptr);

/// Outcome of checking one candidate: either it is fully connected, or
/// `pieces` holds the maximal convoys (lifespan >= k) of its restriction.
struct FcCheck {
  bool fully_connected = false;
  std::vector<Convoy> pieces;
  size_t reclusterings = 0;  ///< restricted DBSCAN runs the check made
  size_t proven_ticks = 0;   ///< ticks of the lifespan `proven` answered
};

/// The per-candidate step of ValidateFullyConnected. A deterministic
/// function of the store's content, so any thread may run it on its own
/// store handle and scratch. `proven` (sorted, disjoint ranges) lists ticks
/// at which candidate.objects is proven connected; the answer is the same
/// with or without them, only the reads differ. Every tick of the lifespan
/// is probed (the sweep visits all of them when the fast path fails), so
/// `reclusterings + proven_ticks` is the lifespan's length.
Result<FcCheck> CheckFullyConnected(Store* store, const Convoy& candidate,
                                    const MiningParams& params,
                                    SnapshotScratch* scratch,
                                    std::span<const TimeRange> proven = {});

/// Checks every convoy of one round; `checks` arrives sized to the round.
/// The convoys of a round are independent of each other.
using FcRoundChecker = std::function<Status(const std::vector<Convoy>& round,
                                            std::vector<FcCheck>* checks)>;

/// The loop behind ValidateFullyConnected, with the checking of each round
/// left to `check_round` (sequential, or fanned out over threads). Rounds are the
/// levels of the split recursion: the work queue is deduplicated between
/// rounds on the calling thread, in queue order, so every distinct piece is
/// checked exactly once and the result and `stats` do not depend on how a
/// round is scheduled.
Result<std::vector<Convoy>> ValidateInRounds(
    std::vector<Convoy> candidates, const MiningParams& params,
    bool recursive, ValidationStats* stats,
    const FcRoundChecker& check_round);

}  // namespace k2

#endif  // K2_BASELINES_VALIDATION_H_
