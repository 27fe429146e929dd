// Partitioned mining benchmark: sweeps shard counts for time-sharded
// MineK2Hop (K2HopOptions::num_shards) on the Trucks workload (memory + LSMT
// engines) and reports per-phase wall time, seam-stitch behaviour, and
// speedup against MineK2Hop with default options. Partitioned output is
// equality-checked against batch in-process for every configuration.
#include "bench/harness.h"

#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/k2hop.h"

using namespace k2;
using namespace k2::bench;

int main(int argc, char** argv) {
  ParseArgs(argc, argv);
  PrintBanner("Partitioned: time-sharded k/2-hop vs batch");
  const Dataset& data = Trucks();
  std::cout << data.DebugString() << "\n\n";
  const MiningParams params{3, 200, 30.0};
  // k2-lint: allow(bench-key-hardware-independent): sizes the worker pool
  // only; every recorded row is keyed by explicit shard/thread columns.
  const int threads = std::max(
      2, static_cast<int>(std::thread::hardware_concurrency()));

  TablePrinter table({"store", "mode", "shards", "threads", "total_s",
                      "hwmt_s", "merge_ms", "seams_x", "speedup",
                      "convoys"});
  for (StoreKind kind : {StoreKind::kMemory, StoreKind::kLsm}) {
    auto store = BuildStore(kind, data, "partitioned");

    K2HopStats batch_stats;
    Stopwatch batch_sw;
    auto batch_result = MineK2Hop(store.get(), params, {}, &batch_stats);
    const double batch_seconds = batch_sw.ElapsedSeconds();
    K2_CHECK(batch_result.ok());
    const std::vector<Convoy>& batch_convoys = batch_result.value();
    RecordMiningRun("k2hop", *store, params, batch_seconds,
                    batch_convoys.size(), batch_stats.io);
    table.AddRow({StoreKindName(kind), "batch", "-", "-", Fmt(batch_seconds),
                  "-", "-", "-", "1.00",
                  std::to_string(batch_convoys.size())});

    for (int shards : {1, 2, 4, 8}) {
      K2HopOptions options;
      options.num_shards = shards;
      options.num_threads = threads;
      K2HopStats stats;
      Stopwatch sw;
      auto mined = MineK2Hop(store.get(), params, options, &stats);
      const double seconds = sw.ElapsedSeconds();
      K2_CHECK(mined.ok());
      K2_CHECK(mined.value() == batch_convoys);  // both in canonical order

      table.AddRow({StoreKindName(kind), "partitioned",
                    std::to_string(stats.shards), std::to_string(threads),
                    Fmt(seconds), Fmt(stats.phases.Get("HWMT")),
                    Fmt(stats.phases.Get("merge") * 1e3),
                    std::to_string(stats.seams_crossed),
                    Fmt(batch_seconds / seconds, 2),
                    std::to_string(mined.value().size())});

      JsonFields extra;
      extra.Int("shards", stats.shards)
          .Int("threads", static_cast<uint64_t>(threads))
          .Int("seams_crossed", stats.seams_crossed)
          .Int("stitch_replays", stats.stitch_replays)
          .Num("hwmt_ms", stats.phases.Get("HWMT") * 1e3)
          .Num("merge_ms", stats.phases.Get("merge") * 1e3);
      RecordMiningRun("k2hop-partitioned-s" + std::to_string(shards), *store,
                      params, seconds, mined.value().size(), stats.io, extra);
    }
  }
  table.Print();
  std::cout << "\npartitioned == batch convoy sets for every shard count "
               "(checked in-process); hwmt_s is the HWMT phase over all "
               "shards, merge_ms the spanning-convoy fold with its seam "
               "stitch.\n";
  return 0;
}
