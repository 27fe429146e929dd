// Time-sharded k/2-hop mining is MineK2Hop with K2HopOptions::num_shards
// (see core/k2hop.h). The two names below remain because the end-to-end
// benchmark's self-test (bench/e2e/selftest.cc) mines through them, and
// that benchmark keeps its sources self-contained in bench/e2e: they are
// spellings of the batch miner, not a second pipeline.
#ifndef K2_CORE_PARTITION_H_
#define K2_CORE_PARTITION_H_

#include <vector>

#include "core/k2hop.h"

namespace k2 {

using PartitionedK2HopOptions = K2HopOptions;

/// MineK2Hop over a borrowed store; Mine() may be called repeatedly.
class PartitionedK2HopMiner {
 public:
  PartitionedK2HopMiner(Store* store, const MiningParams& params,
                        PartitionedK2HopOptions options = {})
      : store_(store), params_(params), options_(options) {}

  Result<std::vector<Convoy>> Mine() {
    return MineK2Hop(store_, params_, options_, &stats_);
  }
  const K2HopStats& stats() const { return stats_; }

 private:
  Store* store_;
  MiningParams params_;
  PartitionedK2HopOptions options_;
  K2HopStats stats_;
};

}  // namespace k2

#endif  // K2_CORE_PARTITION_H_
