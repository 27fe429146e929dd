#include "core/vcoda.h"

#include "baselines/cmc.h"
#include "cluster/clusterer.h"

namespace k2 {

Result<std::vector<Convoy>> MineVcoda(Store* store, const MiningParams& params,
                                      bool corrected, VcodaStats* stats) {
  K2_RETURN_NOT_OK(ValidateMiningParams(params));
  K2_RETURN_NOT_OK(store->status());
  K2_RETURN_NOT_OK(ValidateTickRange(store->time_range(), params));
  const IoStats io_before = store->io_stats();
  VcodaStats local;
  VcodaStats* s = stats != nullptr ? stats : &local;

  Stopwatch sw;
  K2_ASSIGN_OR_RETURN(std::vector<Convoy> candidates, MinePccd(store, params));
  s->phases.Add("cluster+sweep", sw.ElapsedSeconds());
  s->prevalidation_convoys = candidates.size();

  sw.Restart();
  K2_ASSIGN_OR_RETURN(
      std::vector<Convoy> result,
      ValidateFullyConnected(store, std::move(candidates), params, corrected,
                             &s->validation));
  s->phases.Add("validation", sw.ElapsedSeconds());
  s->io = IoStats::Delta(store->io_stats(), io_before);
  return result;
}

}  // namespace k2
