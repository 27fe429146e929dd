// DCM — Distributed Convoy Mining (Orakzai et al., MDM 2016). The time axis
// is split into contiguous partitions; each partition is mined independently
// (CMC-style sweep, keeping pieces that touch partition borders), and the
// per-partition results are folded left-to-right with the DCM merge — the
// same merge k/2-hop reuses for its spanning convoys (Sec. 4.4). Threads of
// one process stand in for the cluster nodes.
#ifndef K2_BASELINES_DCM_H_
#define K2_BASELINES_DCM_H_

#include <vector>

#include "common/convoy.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/types.h"
#include "storage/store.h"

namespace k2 {

struct DcmOptions {
  int num_partitions = 4;  ///< temporal splits ("nodes" of Fig. 7g)
  int num_workers = 1;     ///< threads mining partitions concurrently
};

struct DcmStats {
  PhaseTimer phases;  ///< "materialize", "partition-mining", "merge"
  size_t partition_convoys = 0;  ///< pieces produced by all partitions
};

/// Mines maximal partially connected convoys with lifespan >= k (same
/// specification as PCCD, hence differentially testable against it).
Result<std::vector<Convoy>> MineDcm(Store* store, const MiningParams& params,
                                    const DcmOptions& options = {},
                                    DcmStats* stats = nullptr);

/// The merge step alone, exposed for tests: folds per-partition maximal
/// convoys (partition p covers `ranges[p]`) into global maximal convoys.
std::vector<Convoy> DcmMergePartitions(
    std::vector<std::vector<Convoy>> partition_results,
    const std::vector<TimeRange>& ranges, const MiningParams& params);

}  // namespace k2

#endif  // K2_BASELINES_DCM_H_
