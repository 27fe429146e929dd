// VCoDA — Valid Convoy Discovery (Yoon & Shahabi 2009): PCCD to find the
// maximal partially connected convoys, then DCVal validation to reduce them
// to fully connected ones. `corrected = true` is the paper's VCoDA* (the
// recursive validation correction proposed in Sec. 1/4.6); `false` is the
// original one-pass DCVal.
#ifndef K2_CORE_VCODA_H_
#define K2_CORE_VCODA_H_

#include <vector>

#include "common/convoy.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/types.h"
#include "core/validation.h"
#include "storage/store.h"

namespace k2 {

struct VcodaStats {
  PhaseTimer phases;  ///< "cluster+sweep", "validation"
  size_t prevalidation_convoys = 0;  ///< Fig. 8j series
  ValidationStats validation;
  IoStats io;  ///< store IO consumed by this run
};

Result<std::vector<Convoy>> MineVcoda(Store* store, const MiningParams& params,
                                      bool corrected = true,
                                      VcodaStats* stats = nullptr);

}  // namespace k2

#endif  // K2_CORE_VCODA_H_
