#include "core/validation.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <span>

#include "baselines/sweep.h"
#include "core/proof_book.h"
#include "core/snapshot_slots.h"
#include "core/tick_probe.h"

namespace k2 {

Status CheckRound(SnapshotSlots* slots, const std::vector<Convoy>& round,
                  const MiningParams& params, const ProofBook& book,
                  std::vector<FcCheck>* checks) {
  const size_t n = round.size();
  if (n == 0) return Status::OK();
  // Candidates in object-set order, so that the asks of one tick for equal
  // sets are adjacent.
  std::vector<uint32_t> by_set(n);
  std::iota(by_set.begin(), by_set.end(), 0);
  std::stable_sort(by_set.begin(), by_set.end(), [&](uint32_t a, uint32_t b) {
    return round[a].objects < round[b].objects;
  });
  // The round's ticks, ascending: the union of the lifespans, however far
  // apart they lie. Each lifespan is a contiguous stretch of them, from
  // first[i], so tick_index(i, t) indexes the per-tick arrays below.
  std::vector<uint32_t> by_start(n);
  std::iota(by_start.begin(), by_start.end(), 0);
  std::sort(by_start.begin(), by_start.end(), [&](uint32_t a, uint32_t b) {
    return round[a].start < round[b].start;
  });
  std::vector<Timestamp> round_ticks;
  std::vector<uint32_t> first(n);
  for (uint32_t i : by_start) {
    Timestamp t = round[i].start;
    if (!round_ticks.empty()) t = std::max(t, round_ticks.back() + 1);
    first[i] = static_cast<uint32_t>(round_ticks.size() - (t - round[i].start));
    for (; t <= round[i].end; ++t) round_ticks.push_back(t);
  }
  const auto tick_index = [&](size_t i, Timestamp t) {
    return first[i] + static_cast<uint32_t>(t - round[i].start);
  };
  // The unproven ticks of candidate i are its lifespan minus known[i].
  std::vector<std::span<const TimeRange>> known(n);
  auto for_unproven = [&](size_t i, auto&& fn) {
    Timestamp t = round[i].start;
    for (const TimeRange& r : known[i]) {
      for (; t < std::min(r.start, round[i].end + 1); ++t) fn(t);
      t = std::max(t, r.end + 1);
    }
    for (; t <= round[i].end; ++t) fn(t);
  };

  // Counting sort of the (tick, candidate) asks by tick: tick_begin[k] is
  // the first ask of tick round_ticks[k]. Each candidate also lists its
  // asks in tick order, from cand_begin[i].
  std::vector<uint32_t> tick_begin(round_ticks.size() + 1, 0);
  std::vector<uint32_t> cand_begin(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    known[i] = book.Find(round[i].objects);
    uint32_t asks = 0;
    for_unproven(i, [&](Timestamp t) {
      ++tick_begin[tick_index(i, t) + 1];
      ++asks;
    });
    cand_begin[i + 1] = cand_begin[i] + asks;
    (*checks)[i].proven_ticks = round[i].length() - asks;
  }
  std::partial_sum(tick_begin.begin(), tick_begin.end(), tick_begin.begin());
  const uint32_t total = cand_begin[n];
  struct CandAsk {
    Timestamp t;
    uint32_t ask;
  };
  std::vector<uint32_t> ask_cand(total);
  std::vector<CandAsk> cand_asks(total);
  {
    std::vector<uint32_t> fill(tick_begin.begin(), tick_begin.end() - 1);
    for (uint32_t i : by_set) {
      uint32_t at = cand_begin[i];
      for_unproven(i, [&](Timestamp t) {
        const uint32_t a = fill[tick_index(i, t)]++;
        ask_cand[a] = i;
        cand_asks[at++] = CandAsk{t, a};
      });
    }
  }
  // The distinct sets of the asks [b, e) of tick round_ticks[k] are asked
  // from probes[b], and answered into answers[b, b + distinct[j]), where
  // asked[j] = k; answer_of[a] is ask a's answer. A set's re-clustering is
  // charged to the first candidate that asks it.
  std::vector<uint32_t> asked, distinct;
  std::vector<TickProbe::Ask> probes(total);
  std::vector<uint32_t> answer_of(total);
  for (size_t k = 0; k + 1 < tick_begin.size(); ++k) {
    const uint32_t b = tick_begin[k], e = tick_begin[k + 1];
    if (b == e) continue;
    uint32_t d = 0;
    for (uint32_t a = b; a < e; ++a) {
      const ObjectSet& objects = round[ask_cand[a]].objects;
      if (a == b || objects != round[ask_cand[a - 1]].objects) {
        probes[b + d++] = TickProbe::Ask{&objects, {}};
        ++(*checks)[ask_cand[a]].reclusterings;
      }
      answer_of[a] = b + d - 1;
    }
    asked.push_back(static_cast<uint32_t>(k));
    distinct.push_back(d);
  }

  // One probe per tick.
  std::vector<TickProbe::Answer> answers(total);
  K2_RETURN_NOT_OK(slots->ForEach(
      asked.size(), [&](SnapshotSlots::Slot& slot, size_t j) -> Status {
        const uint32_t b = tick_begin[asked[j]];
        return slot.probe.Run(
            slot.store, round_ticks[asked[j]],
            std::span<const TickProbe::Ask>(probes).subspan(b, distinct[j]),
            params, &slot.scratch,
            std::span<TickProbe::Answer>(answers).subspan(b, distinct[j]));
      }));

  // Verdicts, then the sweeps of the candidates that failed.
  std::vector<uint32_t> failed;
  for (uint32_t i = 0; i < n; ++i) {
    bool all_whole = true;
    for (uint32_t p = cand_begin[i]; p < cand_begin[i + 1]; ++p) {
      all_whole &= answers[answer_of[cand_asks[p].ask]].whole;
    }
    (*checks)[i].fully_connected = all_whole;
    if (!all_whole) failed.push_back(i);
  }
  SweepOptions options;
  options.min_length = params.k;
  return slots->ForEach(
      failed.size(), [&](SnapshotSlots::Slot&, size_t f) -> Status {
        const uint32_t i = failed[f];
        const Convoy& candidate = round[i];
        uint32_t p = cand_begin[i];
        K2_ASSIGN_OR_RETURN(
            (*checks)[i].pieces,
            MaximalConvoySweep(
                [&](Timestamp t, std::vector<ObjectSet>* out) -> Status {
                  const TickProbe::Answer* answer = nullptr;
                  if (p < cand_begin[i + 1] && cand_asks[p].t == t) {
                    answer = &answers[answer_of[cand_asks[p++].ask]];
                  }
                  if (answer == nullptr || answer->whole) {
                    *out = {candidate.objects};  // proven, or answered {O}
                  } else {
                    *out = answer->clusters;
                  }
                  return Status::OK();
                },
                candidate.lifespan(), params.m, options));
        return Status::OK();
      });
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
      s->probed_points += static_cast<uint64_t>(round[i].objects.size()) *
                          static_cast<uint64_t>(round[i].length());
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
  SnapshotSlots slots(store, 1);
  return slots.Validate(params, std::move(candidates), ProofBook(), stats,
                        recursive);
}

}  // namespace k2
