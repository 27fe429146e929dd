#include "core/proof_book.h"

#include <algorithm>

namespace k2 {

void ProofBook::Add(const ObjectSet& objects, TimeRange ticks) {
  if (ticks.empty()) return;
  std::vector<TimeRange>& ranges = ranges_[objects];
  TimeRange merged = ticks;
  // The first range that overlaps or touches the new one, then every
  // following range that does; they fold into one.
  auto first = std::lower_bound(
      ranges.begin(), ranges.end(), merged.start,
      [](const TimeRange& r, Timestamp t) { return int64_t{r.end} + 1 < t; });
  auto last = first;
  for (; last != ranges.end() && last->start <= int64_t{merged.end} + 1;
       ++last) {
    merged.start = std::min(merged.start, last->start);
    merged.end = std::max(merged.end, last->end);
  }
  ranges.insert(ranges.erase(first, last), merged);
}

std::span<const TimeRange> ProofBook::Find(const ObjectSet& objects) const {
  const auto it = ranges_.find(objects);
  if (it == ranges_.end()) return {};
  return it->second;
}

}  // namespace k2
