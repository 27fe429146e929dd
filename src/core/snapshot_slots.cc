#include "core/snapshot_slots.h"

#include <algorithm>

#include "common/parallel_for.h"
#include "core/k2hop.h"

namespace k2 {

SnapshotSlots::SnapshotSlots(Store* store, int threads)
    : store_(store),
      store_before_(store->io_stats()),
      slots_(static_cast<size_t>(std::max(threads, 1))) {
  if (slots_.size() == 1) slots_[0].slot.store = store_;
}

Status SnapshotSlots::ForEach(
    size_t n, const std::function<Status(Slot&, size_t)>& fn) {
  if (slots_.size() == 1) {
    for (size_t i = 0; i < n; ++i) K2_RETURN_NOT_OK(fn(slots_[0].slot, i));
    return Status::OK();
  }
  const size_t runners = std::min(slots_.size(), n);
  for (size_t r = 0; r < runners; ++r) {
    SlotState& s = slots_[r];
    if (s.snapshot != nullptr) continue;
    K2_ASSIGN_OR_RETURN(s.snapshot, store_->CreateReadSnapshot());
    s.opened = s.snapshot->io_stats();
    s.slot.store = s.snapshot.get();
  }
  std::vector<Status> statuses(n);
  ParallelFor(static_cast<int>(runners), n, [&](size_t slot, size_t i) {
    statuses[i] = fn(slots_[slot].slot, i);
  });
  for (Status& status : statuses) K2_RETURN_NOT_OK(status);
  return Status::OK();
}

Result<std::vector<Convoy>> SnapshotSlots::Extend(
    const MiningParams& params, const std::vector<Convoy>& seeds,
    Timestamp limit, int dir, ProofBook* book) {
  std::vector<std::vector<Convoy>> completed(seeds.size());
  std::vector<std::vector<ProvenRun>> proven(seeds.size());
  K2_RETURN_NOT_OK(ForEach(seeds.size(), [&](Slot& slot, size_t i) -> Status {
    std::vector<ProvenRun>* runs = book != nullptr ? &proven[i] : nullptr;
    ConvoyExtensionWalk walk(seeds[i], dir);
    K2_RETURN_NOT_OK(walk.Advance(slot.store, params, limit, &completed[i],
                                  &slot.scratch, runs));
    walk.Flush(limit, &completed[i], runs);
    return Status::OK();
  }));
  if (book != nullptr) {
    for (const std::vector<ProvenRun>& runs : proven) book->Add(runs);
  }
  MaximalConvoySet results;
  for (std::vector<Convoy>& pieces : completed) {
    for (Convoy& c : pieces) results.Insert(std::move(c));
  }
  return results.TakeSorted();
}

Result<std::vector<Convoy>> SnapshotSlots::Validate(
    const MiningParams& params, std::vector<Convoy> candidates,
    const ProofBook& book, ValidationStats* stats) {
  return ValidateInRounds(
      std::move(candidates), params, /*recursive=*/true, stats,
      [&](const std::vector<Convoy>& round,
          std::vector<FcCheck>* checks) -> Status {
        return ForEach(round.size(), [&](Slot& slot, size_t i) -> Status {
          K2_ASSIGN_OR_RETURN(
              (*checks)[i],
              CheckFullyConnected(slot.store, round[i], params, &slot.scratch,
                                  book.Find(round[i].objects)));
          return Status::OK();
        });
      });
}

IoStats SnapshotSlots::io() const {
  IoStats total = IoStats::Delta(store_->io_stats(), store_before_);
  for (const SlotState& s : slots_) {
    if (s.snapshot == nullptr) continue;  // one slot, or the slot never ran
    total.Accumulate(IoStats::Delta(s.snapshot->io_stats(), s.opened));
  }
  return total;
}

}  // namespace k2
