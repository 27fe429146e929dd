// The one parallel loop of the tree: run n independent items on T threads,
// then join. The batch miner's per-item phases (core/snapshot_slots.h) and
// the multi-core baselines (SPARE, DCM) all run on it. Threads are started
// for the call and joined before it returns, so no state outlives a call
// and no lock is needed.
#ifndef K2_COMMON_PARALLEL_FOR_H_
#define K2_COMMON_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace k2 {

/// Runs fn(slot, i) for every i in [0, n) on min(threads, n) runners: the
/// calling thread as slot 0 plus one thread started per further slot, all
/// claiming indices from one shared counter. `slot` < min(threads, n)
/// identifies the runner, so callers can hand each its own scratch state.
/// `threads` <= 1 or `n` <= 1 runs inline on slot 0 and starts no thread.
///
/// Every started thread is joined before the call returns, on every path.
/// If fn throws, every other index still runs and one of the exceptions is
/// rethrown after the join; a thread that fails to start is reported the
/// same way, its share of the items run by the other runners.
void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t slot, size_t i)>& fn);

/// The number of hardware threads the platform reports, and at least 1.
int HardwareThreads();

}  // namespace k2

#endif  // K2_COMMON_PARALLEL_FOR_H_
