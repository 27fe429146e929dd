// Shared driver for Figs. 7d/7e/7f: k/2-hop (sequential, k2-RDBMS) gain over
// SPARE running with a sweep of worker counts on all three workloads.
// Threads of this process stand in for the paper's Spark cluster cores; on a
// machine with fewer physical cores than workers the curve flattens rather
// than falls, which the output banner calls out.
#ifndef K2_BENCH_SPARE_GAIN_COMMON_H_
#define K2_BENCH_SPARE_GAIN_COMMON_H_

#include <thread>

#include "bench/harness.h"

namespace k2::bench {

inline int RunSpareGainFigure(const std::string& title,
                              const std::vector<int>& worker_counts) {
  PrintBanner(title);
  // k2-lint: allow(bench-key-hardware-independent): banner print only;
  // worker counts in the recorded rows come from the explicit sweep list.
  std::cout << "hardware threads available: "
            << std::thread::hardware_concurrency() << "\n\n";

  struct Workload {
    const char* name;
    const Dataset* data;
    MiningParams params;
  };
  const std::vector<Workload> workloads = {
      {"Trucks", &Trucks(), {3, 200, 30.0}},
      {"Brinkhoff", &Brinkhoff(), {3, 200, 60.0}},
      {"TDrive", &TDrive(), {3, 200, 60.0}},
  };

  TablePrinter table({"workers", "Trucks", "Brinkhoff", "TDrive"});
  // SPARE emits partially connected convoys, so k/2-hop runs without the
  // final FC validation here — the same output class (PCCD-equivalent).
  K2HopOptions k2_options;
  k2_options.validate = false;
  std::vector<double> k2_seconds;
  std::vector<std::unique_ptr<Store>> stores;
  for (const Workload& w : workloads) {
    auto rdbms = BuildStore(StoreKind::kBPlusTree, *w.data, "sparegain");
    k2_seconds.push_back(RunK2(rdbms.get(), w.params, nullptr, k2_options).seconds);
    stores.push_back(BuildStore(StoreKind::kMemory, *w.data, "sparegain"));
  }
  for (int workers : worker_counts) {
    std::vector<std::string> row{std::to_string(workers)};
    for (size_t i = 0; i < workloads.size(); ++i) {
      const MineOutcome spare =
          RunSpare(stores[i].get(), workloads[i].params, workers);
      if (spare.dnf) {
        row.push_back("DNF(" + spare.note + ")");
      } else {
        row.push_back(Fmt(spare.seconds / std::max(1e-6, k2_seconds[i]), 1) +
                      "x");
      }
    }
    table.AddRow(row);
  }
  table.Print();
  std::cout << "(gain = SPARE time at N workers / sequential k2-RDBMS time;\n"
               " both sides mine partially connected convoys)\n";
  return 0;
}

}  // namespace k2::bench

#endif  // K2_BENCH_SPARE_GAIN_COMMON_H_
