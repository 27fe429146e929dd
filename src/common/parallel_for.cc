#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace k2 {

void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t, size_t)>& fn) {
  const size_t runners =
      std::clamp<size_t>(n, 1, static_cast<size_t>(std::max(threads, 1)));
  std::atomic<size_t> next{0};
  // One entry per runner, written only by that runner: no lock.
  std::vector<std::exception_ptr> errors(runners);
  auto run = [&](size_t slot) {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(slot, i);
      } catch (...) {
        if (errors[slot] == nullptr) errors[slot] = std::current_exception();
      }
    }
  };

  // A failed start stops further starts; the runners already going, the
  // calling thread among them, still drain every index.
  std::vector<std::thread> started;
  std::exception_ptr start_error;
  try {
    started.reserve(runners - 1);
    for (size_t slot = 1; slot < runners; ++slot) {
      started.emplace_back(run, slot);
    }
  } catch (...) {
    start_error = std::current_exception();
  }
  run(0);
  for (std::thread& thread : started) thread.join();

  if (start_error != nullptr) std::rethrow_exception(start_error);
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

}  // namespace k2
