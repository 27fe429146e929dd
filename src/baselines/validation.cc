#include "baselines/validation.h"

#include <algorithm>
#include <deque>
#include <set>

#include "baselines/sweep.h"
#include "cluster/store_clustering.h"

namespace k2 {

std::vector<Timestamp> BinarySubdivisionOrder(TimeRange range) {
  std::vector<Timestamp> order;
  if (range.empty()) return order;
  order.push_back(range.start);
  if (range.end != range.start) order.push_back(range.end);
  // BFS over segments; the midpoint of each segment is emitted, then the two
  // halves are queued. Every interior tick is the midpoint of exactly one
  // segment of the subdivision.
  std::deque<TimeRange> queue{range};
  while (!queue.empty()) {
    const TimeRange seg = queue.front();
    queue.pop_front();
    if (seg.end - seg.start < 2) continue;
    const Timestamp mid = seg.start + (seg.end - seg.start) / 2;
    order.push_back(mid);
    queue.push_back({seg.start, mid});
    queue.push_back({mid, seg.end});
  }
  return order;
}

namespace {

/// Per-candidate context: which ticks of the lifespan are known to cluster
/// DB[t]|O to exactly {O} — proven on entry, or probed so by the fast path
/// — and the one probe that failed, so the fallback sweep re-clusters only
/// the ticks nothing has answered yet.
class RestrictionProber {
 public:
  RestrictionProber(Store* store, const Convoy& candidate,
                    const MiningParams& params, SnapshotScratch* scratch,
                    std::span<const TimeRange> proven)
      : store_(store),
        candidate_(candidate),
        params_(params),
        scratch_(scratch),
        life_(candidate.lifespan()),
        whole_at_(static_cast<size_t>(life_.length()), 0) {
    for (const TimeRange& r : proven) {
      for (Timestamp t = std::max(r.start, life_.start);
           t <= std::min(r.end, life_.end); ++t) {
        whole_at_[t - life_.start] = 1;
        ++proven_ticks_;
      }
    }
  }

  /// True when DB[t]|O clusters to exactly {O} for every t (FC property).
  Result<bool> IsFullyConnected() {
    for (Timestamp t : BinarySubdivisionOrder(life_)) {
      if (whole_at_[t - life_.start]) continue;
      K2_ASSIGN_OR_RETURN(std::vector<ObjectSet> cs, Probe(t));
      if (cs.size() != 1 || cs[0] != candidate_.objects) {
        failed_at_ = t;
        failed_ = std::move(cs);
        return false;
      }
      whole_at_[t - life_.start] = 1;
    }
    return true;
  }

  /// Maximal convoys of the restricted dataset with lifespan >= k.
  Result<std::vector<Convoy>> SweepRestriction() {
    SweepOptions options;
    options.min_length = params_.k;
    return MaximalConvoySweep(
        [this](Timestamp t, std::vector<ObjectSet>* out) -> Status {
          if (whole_at_[t - life_.start]) {
            *out = {candidate_.objects};
          } else if (t == failed_at_) {
            *out = failed_;
          } else {
            K2_ASSIGN_OR_RETURN(*out, Probe(t));
          }
          return Status::OK();
        },
        life_, params_.m, options);
  }

  size_t reclusterings() const { return reclusterings_; }
  size_t proven_ticks() const { return proven_ticks_; }

 private:
  Result<std::vector<ObjectSet>> Probe(Timestamp t) {
    ++reclusterings_;
    return ReCluster(store_, t, candidate_.objects, params_, scratch_);
  }

  Store* store_;
  const Convoy& candidate_;
  const MiningParams& params_;
  SnapshotScratch* scratch_;
  TimeRange life_;
  std::vector<char> whole_at_;  ///< per lifespan tick: answered {O}
  Timestamp failed_at_ = kInvalidTimestamp;
  std::vector<ObjectSet> failed_;  ///< the fast path's failing answer
  size_t reclusterings_ = 0;
  size_t proven_ticks_ = 0;
};

}  // namespace

Result<FcCheck> CheckFullyConnected(Store* store, const Convoy& candidate,
                                    const MiningParams& params,
                                    SnapshotScratch* scratch,
                                    std::span<const TimeRange> proven) {
  RestrictionProber prober(store, candidate, params, scratch, proven);
  FcCheck check;
  K2_ASSIGN_OR_RETURN(check.fully_connected, prober.IsFullyConnected());
  if (!check.fully_connected) {
    K2_ASSIGN_OR_RETURN(check.pieces, prober.SweepRestriction());
  }
  check.reclusterings = prober.reclusterings();
  check.proven_ticks = prober.proven_ticks();
  return check;
}

Result<std::vector<Convoy>> ValidateInRounds(
    std::vector<Convoy> candidates, const MiningParams& params,
    bool recursive, ValidationStats* stats,
    const FcRoundChecker& check_round) {
  ValidationStats local_stats;
  ValidationStats* s = stats != nullptr ? stats : &local_stats;
  s->candidates_in = candidates.size();
  MaximalConvoySet accepted;
  std::set<Convoy> seen;
  std::vector<Convoy> work = std::move(candidates);
  std::vector<Convoy> round;
  std::vector<FcCheck> checks;
  while (!work.empty()) {
    round.clear();
    for (Convoy& v : work) {
      if (v.objects.size() < static_cast<size_t>(params.m) ||
          v.length() < params.k) {
        continue;
      }
      if (seen.insert(v).second) round.push_back(std::move(v));
    }
    work.clear();
    checks.assign(round.size(), FcCheck());
    K2_RETURN_NOT_OK(check_round(round, &checks));
    for (size_t i = 0; i < round.size(); ++i) {
      FcCheck& check = checks[i];
      s->reclusterings += check.reclusterings;
      s->proven_ticks += check.proven_ticks;
      if (check.fully_connected) {
        ++s->fc_accepted;
        accepted.Insert(std::move(round[i]));
        continue;
      }
      ++s->split_rounds;
      for (Convoy& piece : check.pieces) {
        // Original one-pass DCVal (recursive = false): split results are
        // emitted unvalidated, so there is only ever one round.
        if (recursive) {
          work.push_back(std::move(piece));
        } else {
          accepted.Insert(std::move(piece));
        }
      }
    }
  }
  return accepted.TakeSorted();
}

Result<std::vector<Convoy>> ValidateFullyConnected(
    Store* store, std::vector<Convoy> candidates, const MiningParams& params,
    bool recursive, ValidationStats* stats) {
  SnapshotScratch scratch;
  return ValidateInRounds(
      std::move(candidates), params, recursive, stats,
      [&](const std::vector<Convoy>& round,
          std::vector<FcCheck>* checks) -> Status {
        for (size_t i = 0; i < round.size(); ++i) {
          K2_ASSIGN_OR_RETURN((*checks)[i], CheckFullyConnected(
                                                store, round[i], params,
                                                &scratch));
        }
        return Status::OK();
      });
}

}  // namespace k2
