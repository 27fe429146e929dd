// SPARE — Star Partitioning and ApRiori Enumerator (Fan et al., PVLDB 2016),
// the state-of-the-art parallel co-movement framework the paper compares
// against (Figs. 7d-7f), specialized to the convoy predicate (consecutive
// lifespan >= k). Two phases, as in the Spark implementation:
//   1. snapshot clustering of every tick (the cost SPARE treats as
//      preprocessing and the paper shows dominates);
//   2. star partitioning of the co-clustering graph + apriori enumeration
//      within each star.
// Threads of one process stand in for Spark executors.
#ifndef K2_BASELINES_SPARE_H_
#define K2_BASELINES_SPARE_H_

#include <cstdint>
#include <vector>

#include "common/convoy.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/types.h"
#include "storage/store.h"

namespace k2 {

struct SpareOptions {
  int num_workers = 1;  ///< parallelism of both phases ("cores" in Fig. 7d-f)
  /// Safety cap on apriori DFS nodes; exhausted => partial result flagged in
  /// the stats (the enumeration is worst-case exponential).
  uint64_t enumeration_budget = 50'000'000;
};

struct SpareStats {
  PhaseTimer phases;  ///< "clustering", "edges", "enumeration"
  size_t stars = 0;
  size_t edges = 0;
  uint64_t dfs_nodes = 0;
  bool budget_exhausted = false;
};

/// Mines maximal partially connected convoys with lifespan >= k (same
/// specification as PCCD / DCM).
Result<std::vector<Convoy>> MineSpare(Store* store, const MiningParams& params,
                                      const SpareOptions& options = {},
                                      SpareStats* stats = nullptr);

}  // namespace k2

#endif  // K2_BASELINES_SPARE_H_
