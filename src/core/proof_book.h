// Connectivity proofs of one mining run. S is proven connected at t when
// the restriction of tick t to S is one cluster, which is all that FC
// validation (Sec. 4.6) asks of each tick of a candidate's lifespan. The
// ProofBook keeps such proofs keyed by object set. Keying by set (not
// carrying proofs on Convoy) lets them survive every MaximalConvoySet fold
// and cache between the phases.
//
// A phase writes a proof only for a set whose whole answer it already
// holds as a result: HWMT the window interior of each candidate it keeps
// unsplit, an extension walk the run of ticks on which a branch found
// itself, and the online miner's FC validation the lifespan of each convoy
// it accepts. A phase reads the book through its TickProbe
// (core/tick_probe.h): a proven (t, S) is answered {S} without a store
// read. In batch, the extension phases and validation read the book that
// the earlier phases built, and HWMT and the walks add their proofs after
// their phase, so the book never changes while a phase runs. Batch HWMT
// does not read the book: it holds only earlier shards' HWMT runs then,
// which never cover a tick of a later shard's windows. The online miner
// is single-threaded and reads and writes its book live, and its HWMT
// reads what the right walks running ahead of the window proved.
//
// Only an exact {S} answer is a proof. A cluster that ReCluster returns
// for a superset of S proves nothing about S on its own: DBSCAN restricted
// to fewer objects can split S (a border point a core of S needed may have
// gone to another cluster). So a branch born from a split at tick t is not
// proven at t.
#ifndef K2_CORE_PROOF_BOOK_H_
#define K2_CORE_PROOF_BOOK_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "common/object_set.h"
#include "common/types.h"

namespace k2 {

/// `objects` is connected at every tick of `ticks`: the phase that reports
/// it was answered exactly {objects} there.
struct ProvenRun {
  ObjectSet objects;
  TimeRange ticks;
};

/// Object set -> the ticks at which it is proven connected. Filled on one
/// thread between the parallel phases; concurrent Find calls are safe while
/// nobody adds. The content is the union of what was added, so it does not
/// depend on the order of the Add calls.
class ProofBook {
 public:
  /// Copies `objects` only the first time the set is added.
  void Add(const ObjectSet& objects, TimeRange ticks);
  void Add(const ProvenRun& run) { Add(run.objects, run.ticks); }
  void Add(const std::vector<ProvenRun>& runs) {
    for (const ProvenRun& run : runs) Add(run);
  }

  /// The proven ticks of exactly `objects`: sorted ranges, pairwise
  /// disjoint and non-adjacent; empty when nothing is proven. The span
  /// stays valid until the next Add.
  std::span<const TimeRange> Find(const ObjectSet& objects) const;

 private:
  std::unordered_map<ObjectSet, std::vector<TimeRange>, ObjectSetHash>
      ranges_;
};

}  // namespace k2

#endif  // K2_CORE_PROOF_BOOK_H_
