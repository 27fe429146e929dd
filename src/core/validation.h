// Fully-connected-convoy validation (paper Sec. 4.6 / Algorithm 4). A
// candidate (O, T) is FC iff the dataset restricted to O clusters to exactly
// {O} at every tick of T. Validation runs in rounds, the levels of the split
// recursion, and checks each round tick-major: it lists every candidate's
// ticks that the run's ProofBook does not prove, and SnapshotSlots fans the
// ticks out. Each tick is one TickProbe call (core/tick_probe.h): one fetch
// for the union of the tick's candidate sets, each distinct set
// re-clustered once. A candidate answered {O} at every tick is FC; any other
// is swept (MaximalConvoySweep) from the recorded answers into the maximal
// convoys of its restriction, which the next round checks — the paper's
// correction of DCVal. `recursive = false` reproduces the original one-pass
// DCVal (Yoon & Shahabi), which can emit non-FC convoys because split
// results are not re-validated.
//
// The sweep consults every tick, so a round re-clusters each (t, O) of its
// candidates that no proof answers, once, however many candidates ask it.
// Only an exact {O} answer is a proof — a cluster equal to O that came out
// of re-clustering a superset of O is not.
#ifndef K2_CORE_VALIDATION_H_
#define K2_CORE_VALIDATION_H_

#include <functional>
#include <vector>

#include "common/convoy.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/store.h"

namespace k2 {

class ProofBook;
class SnapshotSlots;

struct ValidationStats {
  size_t candidates_in = 0;
  size_t fc_accepted = 0;     ///< candidates that passed unchanged
  size_t split_rounds = 0;    ///< candidates swept into pieces
  size_t reclusterings = 0;   ///< restricted DBSCAN runs
  size_t proven_ticks = 0;    ///< ticks a proof answered without a read
  /// Σ|O| × |T| over the checked candidates: the paper's accounting, in
  /// which every tick of every candidate is read.
  uint64_t probed_points = 0;
};

/// Reduces `candidates` to the maximal fully connected convoys they
/// contain, on one slot and without proofs (VCoDA's DCVal step). All data
/// access goes through `store` point reads.
Result<std::vector<Convoy>> ValidateFullyConnected(
    Store* store, std::vector<Convoy> candidates, const MiningParams& params,
    bool recursive = true, ValidationStats* stats = nullptr);

/// Outcome of checking one candidate: either it is fully connected, or
/// `pieces` holds the maximal convoys (lifespan >= k) of its restriction.
struct FcCheck {
  bool fully_connected = false;
  std::vector<Convoy> pieces;
  /// ReCluster calls charged to the candidate: a (t, O) that several
  /// candidates of a round ask is charged to the first of them.
  size_t reclusterings = 0;
  size_t proven_ticks = 0;   ///< ticks of the lifespan a proof answered
};

/// Checks every convoy of one round; `checks` arrives sized to the round.
/// The convoys of a round are independent of each other.
using FcRoundChecker = std::function<Status(const std::vector<Convoy>& round,
                                            std::vector<FcCheck>* checks)>;

/// The loop behind validation, with the checking of each round left to
/// `check_round`. The work queue is deduplicated between rounds on the
/// calling thread, in queue order, so every distinct piece is checked
/// exactly once and the result and `stats` do not depend on how a round is
/// scheduled.
Result<std::vector<Convoy>> ValidateInRounds(
    std::vector<Convoy> candidates, const MiningParams& params,
    bool recursive, ValidationStats* stats,
    const FcRoundChecker& check_round);

/// The tick-major round check on `slots` (see the file comment). `book` is
/// only read, and the round records no proof: what it proves is its
/// result, the FC candidates, each answered {O} at every tick of its
/// lifespan. Every candidate's verdict and pieces, and the round's
/// re-clusterings, are the same for every slot count.
Status CheckRound(SnapshotSlots* slots, const std::vector<Convoy>& round,
                  const MiningParams& params, const ProofBook& book,
                  std::vector<FcCheck>* checks);

}  // namespace k2

#endif  // K2_CORE_VALIDATION_H_
