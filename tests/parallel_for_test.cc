// Unit tests for ParallelFor: index coverage, slot bounds, exception
// propagation, and the inline cases that start no thread.
#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace k2 {
namespace {

TEST(ParallelForTest, CoversEveryIndexOnceForOneTwoAndFourThreads) {
  for (int threads : {1, 2, 4}) {
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(threads, hits.size(),
                [&](size_t, size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelForTest, SlotsStayBelowMinOfThreadsAndItems) {
  for (auto [threads, n] : {std::pair<int, size_t>{3, 200}, {8, 3}}) {
    const size_t runners = std::min(static_cast<size_t>(threads), n);
    std::vector<std::atomic<int>> slot_hits(runners);
    ParallelFor(threads, n, [&](size_t slot, size_t) {
      ASSERT_LT(slot, runners);
      slot_hits[slot].fetch_add(1);
    });
    int total = 0;
    for (auto& hits : slot_hits) total += hits.load();
    // No assertion on any slot's share: one runner may legally drain every
    // index before another claims one.
    EXPECT_EQ(total, static_cast<int>(n));
  }
}

TEST(ParallelForTest, RethrowsAfterEveryOtherIndexRan) {
  for (int threads : {1, 2}) {
    std::atomic<int> done{0};
    EXPECT_THROW(ParallelFor(threads, 64,
                             [&](size_t, size_t i) {
                               if (i == 13 || i == 40) {
                                 throw std::runtime_error("boom");
                               }
                               done.fetch_add(1);
                             }),
                 std::runtime_error);
    EXPECT_EQ(done.load(), 62) << "threads=" << threads;
  }
}

TEST(ParallelForTest, ZeroAndOneItemRunInlineOnSlotZero) {
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(4, 0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(4, 1, [&](size_t slot, size_t i) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, OneThreadRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {0, 1}) {
    std::vector<size_t> order;
    ParallelFor(threads, 10, [&](size_t slot, size_t i) {
      EXPECT_EQ(slot, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  }
}

TEST(ParallelForTest, NestedCallsComplete) {
  std::atomic<int> count{0};
  ParallelFor(2, 8, [&](size_t, size_t) {
    ParallelFor(2, 4, [&](size_t, size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 32);
}

}  // namespace
}  // namespace k2
