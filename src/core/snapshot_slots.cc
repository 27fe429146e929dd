#include "core/snapshot_slots.h"

#include <algorithm>
#include <span>

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
  // Groups: the seeds that share a start tick, in seed order within a
  // group; the largest groups run first, so the slots finish together.
  std::vector<uint32_t> order(seeds.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto start = [&](uint32_t i) {
    return dir > 0 ? seeds[i].end : seeds[i].start;
  };
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return start(a) < start(b);
  });
  std::vector<std::span<const uint32_t>> groups;
  for (size_t b = 0, e = 0; b < order.size(); b = e) {
    while (e < order.size() && start(order[e]) == start(order[b])) ++e;
    groups.emplace_back(order.data() + b, e - b);
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](std::span<const uint32_t> a, std::span<const uint32_t> b) {
                     return a.size() > b.size();
                   });

  std::vector<std::vector<Convoy>> completed(groups.size());
  std::vector<std::vector<ProvenRun>> proven(groups.size());
  K2_RETURN_NOT_OK(ForEach(groups.size(), [&](Slot& slot, size_t g) -> Status {
    std::vector<ProvenRun>* runs = book != nullptr ? &proven[g] : nullptr;
    WalkGroup group(dir);
    for (uint32_t i : groups[g]) group.Start(seeds[i]);
    K2_RETURN_NOT_OK(group.Advance(slot.store, params, limit, &completed[g],
                                   &slot.scratch, runs, book));
    group.Flush(limit, &completed[g], runs);
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
    const ProofBook& book, ValidationStats* stats, bool recursive) {
  return ValidateInRounds(
      std::move(candidates), params, recursive, stats,
      [&](const std::vector<Convoy>& round,
          std::vector<FcCheck>* checks) -> Status {
        return CheckRound(this, round, params, book, checks);
      });
}

uint64_t SnapshotSlots::reclusterings() const {
  uint64_t total = 0;
  for (const SlotState& s : slots_) total += s.slot.scratch.reclusterings;
  return total;
}

uint64_t SnapshotSlots::probed_points() const {
  uint64_t total = 0;
  for (const SlotState& s : slots_) total += s.slot.scratch.probed_points;
  return total;
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
