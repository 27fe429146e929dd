// The one probe path of k/2-hop's pruned phases (Sec. 4.3–4.6 and Sec. 5).
// Outside benchmark ticks the miner only asks reCluster(DB[t]|S) for
// candidate sets S, and HWMT, the extension walks and FC validation all ask
// it through a TickProbe, one tick at a time, for every set they need at
// that tick:
//   - a (t, S) that the run's ProofBook proves is answered {S} with no read;
//   - the other sets are read with one GetPoints call for their union, and
//     each is re-clustered from that fetch through FetchedTick, a one-tick
//     Store view, so the SnapshotClusterer seam is unchanged (a lone set is
//     its own union and reads the store directly);
//   - every answer says whether it is exactly {S}, which is a proof.
// The caller asks each distinct set once per tick; how it finds the
// distinct sets (by index or pointer) is its own business.
#ifndef K2_CORE_TICK_PROBE_H_
#define K2_CORE_TICK_PROBE_H_

#include <span>
#include <string>
#include <vector>

#include "cluster/clusterer.h"
#include "common/object_set.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/store.h"

namespace k2 {

/// A one-tick view of a store. After Fetch(store, t, objects), GetPoints at
/// `t` answers any subset of `objects` from the fetched points, exactly as
/// the store would, and charges no IoStats (the fetch was charged to the
/// store it read). Reads at other ticks and scans go to the store.
class FetchedTick final : public Store {
 public:
  /// Reads `objects` (which must outlive the next Fetch) at `t`, once.
  Status Fetch(Store* store, Timestamp t, const ObjectSet& objects);

  std::string name() const override;
  Status BulkLoad(const Dataset&) override;
  Status ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) override;
  Status GetPoints(Timestamp t, const ObjectSet& objects,
                   std::vector<SnapshotPoint>* out) override;
  TimeRange time_range() const override;
  const std::vector<Timestamp>& timestamps() const override;
  uint64_t num_points() const override;

 private:
  Store* store_ = nullptr;
  Timestamp tick_ = kInvalidTimestamp;
  const ObjectSet* objects_ = nullptr;
  std::vector<SnapshotPoint> points_;  // in oid order
};

/// True when `t` lies in one of `proven`'s sorted, disjoint ranges.
bool Proves(std::span<const TimeRange> proven, Timestamp t);

class TickProbe {
 public:
  /// One set asked at a tick, with the ticks at which it is proven
  /// connected (ProofBook::Find of the set, or empty).
  struct Ask {
    const ObjectSet* objects = nullptr;
    std::span<const TimeRange> proven;
  };

  /// The answer to one Ask.
  struct Answer {
    /// Exactly {S}: proven at the tick, or ReCluster returned {S}.
    bool whole = false;
    /// ReCluster's clusters when the answer is not whole; empty otherwise.
    std::vector<ObjectSet> clusters;
  };

  /// Answers every ask at `t` into `answers` (sized like `asks`). The asked
  /// sets must be distinct. Proven asks cost nothing; the others cost one
  /// GetPoints call for their union and one ReCluster call each. The union
  /// is rebuilt only when the unproven sets' ids differ from the ones it
  /// was last built from.
  Status Run(Store* store, Timestamp t, std::span<const Ask> asks,
             const MiningParams& params, SnapshotScratch* scratch,
             std::span<Answer> answers);

 private:
  FetchedTick view_;
  std::vector<size_t> unproven_;
  std::vector<ObjectId> ids_;       ///< the unproven sets' ids, in ask order
  std::vector<ObjectId> union_of_;  ///< the ids union_ was built from
  ObjectSet union_;
};

}  // namespace k2

#endif  // K2_CORE_TICK_PROBE_H_
