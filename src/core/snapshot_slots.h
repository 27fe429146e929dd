// The slot machinery of the parallel mining pipelines. A slot is one
// concurrent runner of a ParallelFor call — the calling thread or a thread
// started for the call — and owns everything a task touches: a store
// handle and a clustering scratch. With more than one slot, every slot
// reads through its own Store::CreateReadSnapshot handle, so no two threads
// share a store handle and no store access is serialized; with one slot no
// thread is started and the slot reads the store itself, so the sequential
// run is the same code.
//
// Per-item work (a benchmark point, a hop-window, a convoy's extension
// walk, a validation candidate) is a deterministic function of the store's
// content, so the slot it runs on cannot change it. Results are gathered by
// item index and folded on the calling thread in index order, which keeps
// the miners' output byte-identical for every thread count.
#ifndef K2_CORE_SNAPSHOT_SLOTS_H_
#define K2_CORE_SNAPSHOT_SLOTS_H_

#include <functional>
#include <memory>
#include <vector>

#include "baselines/validation.h"
#include "cluster/clusterer.h"
#include "common/convoy.h"
#include "common/status.h"
#include "common/types.h"
#include "core/proof_book.h"
#include "storage/store.h"

namespace k2 {

class SnapshotSlots {
 public:
  /// What a task may touch: only the task currently running on the slot
  /// does, so neither member needs a lock.
  struct Slot {
    Store* store = nullptr;  ///< the slot's read snapshot, or the store
    SnapshotScratch scratch;
  };

  /// `threads` runners: the calling thread plus up to `threads - 1` threads
  /// started per ForEach. A slot's snapshot is opened by the first ForEach
  /// that runs the slot, so unused slots cost nothing. `store` is borrowed
  /// and must not be mutated while this object lives.
  SnapshotSlots(Store* store, int threads);

  SnapshotSlots(const SnapshotSlots&) = delete;
  SnapshotSlots& operator=(const SnapshotSlots&) = delete;

  /// Runs fn(slot, i) for every i in [0, n). With one slot, inline in index
  /// order, stopping at the first failure. Otherwise on ParallelFor, after
  /// the calling thread opened the snapshot of every slot the call will run
  /// (a failed open is the call's error, and no item runs); every item runs
  /// and the lowest-index failure is returned.
  Status ForEach(size_t n, const std::function<Status(Slot&, size_t)>& fn);

  /// Extension to exact lifespans (Sec. 4.5): one ConvoyExtensionWalk per
  /// seed toward `limit` (`dir` = +1 right, -1 left), folded in seed order
  /// through a MaximalConvoySet. The walks' proofs are gathered by seed
  /// index and added to `book` (optional) on the calling thread.
  Result<std::vector<Convoy>> Extend(const MiningParams& params,
                                     const std::vector<Convoy>& seeds,
                                     Timestamp limit, int dir,
                                     ProofBook* book = nullptr);

  /// Recursive FC validation (Sec. 4.6) with each round's candidates
  /// checked concurrently (see ValidateInRounds). Each candidate's proven
  /// ticks are looked up in `book` once, and the tasks only read it.
  Result<std::vector<Convoy>> Validate(const MiningParams& params,
                                       std::vector<Convoy> candidates,
                                       const ProofBook& book,
                                       ValidationStats* stats);

  /// Store IO consumed since construction: the store's own delta plus each
  /// snapshot's reads since it was opened (snapshot setup excluded).
  IoStats io() const;

 private:
  struct SlotState {
    Slot slot;
    std::unique_ptr<Store> snapshot;  ///< null until opened, or one slot
    IoStats opened;                   ///< the snapshot's counters when opened
  };

  Store* store_;
  IoStats store_before_;
  std::vector<SlotState> slots_;
};

}  // namespace k2

#endif  // K2_CORE_SNAPSHOT_SLOTS_H_
