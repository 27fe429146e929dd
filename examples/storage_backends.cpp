// Storage engines side by side (paper Sec. 5): the same k/2-hop query runs
// against the flat-file store, the clustered B+-tree ("relational") store
// and the LSM-tree store; the IO counters show why the access-path choice
// matters for k/2-hop's scan-few/point-read-many pattern.
#include <iomanip>
#include <iostream>

#include "common/stopwatch.h"
#include "core/k2hop.h"
#include "gen/tdrive.h"
#include "storage/store.h"

int main() {
  k2::TDriveParams params;
  params.scale = 1.0 / 64.0;  // ~160 taxis
  params.ticks = 800;
  const k2::Dataset dataset = k2::GenerateTDrive(params);
  std::cout << "dataset: " << dataset.DebugString() << "\n\n";

  const k2::MiningParams query{3, 100, 60.0};

  std::cout << std::left << std::setw(8) << "engine" << std::right
            << std::setw(9) << "load(s)" << std::setw(9) << "mine(s)"
            << std::setw(9) << "scans" << std::setw(12) << "point-reads"
            << std::setw(12) << "bytes-read" << std::setw(8) << "seeks"
            << "\n";
  for (k2::StoreKind kind :
       {k2::StoreKind::kMemory, k2::StoreKind::kFile, k2::StoreKind::kBPlusTree,
        k2::StoreKind::kLsm}) {
    auto store_result =
        k2::CreateStore(kind, std::string("/tmp/k2hop_example_") +
                                  k2::StoreKindName(kind));
    if (!store_result.ok()) {
      std::cerr << store_result.status().ToString() << "\n";
      return 1;
    }
    auto store = store_result.MoveValue();
    k2::Stopwatch load_watch;
    if (auto s = store->BulkLoad(dataset); !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
    const double load_seconds = load_watch.ElapsedSeconds();

    k2::Stopwatch mine_watch;
    k2::K2HopStats stats;  // counts the IO of every thread's store snapshot
    auto result = k2::MineK2Hop(store.get(), query, {}, &stats);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    const double mine_seconds = mine_watch.ElapsedSeconds();
    const k2::IoStats& io = stats.io;
    std::cout << std::left << std::setw(8) << store->name() << std::right
              << std::setw(9) << std::fixed << std::setprecision(3)
              << load_seconds << std::setw(9) << mine_seconds << std::setw(9)
              << io.snapshot_scans << std::setw(12) << io.point_queries
              << std::setw(12) << io.bytes_read << std::setw(8) << io.seeks
              << "\n";
  }
  std::cout << "\n(all engines return identical convoys; the differential "
               "tests assert it)\n";
  return 0;
}
