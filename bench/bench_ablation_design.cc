// Ablations of three design choices of k/2-hop and its store:
//   1. HWMT probe order: binary-subdivision (farthest-first) vs naive
//      left-to-right — the farthest-first order kills coincidental
//      togetherness earlier (Sec. 4.3).
//   2. Candidate-cluster pruning (Lemma 5 intersection) on vs off.
//   3. LSM bloom filters on vs off for the HWMT point-read path.
#include "bench/harness.h"
#include "common/check.h"
#include "storage/lsm_store.h"

using namespace k2;
using namespace k2::bench;

int main() {
  PrintBanner("Ablations: HWMT order, candidate pruning, LSM bloom filters");
  const Dataset& data = Trucks();
  const MiningParams params{3, 200, 30.0};
  std::cout << data.DebugString() << "  " << params.DebugString() << "\n\n";

  auto rdbms = BuildStore(StoreKind::kBPlusTree, data, "ablation");

  {
    TablePrinter table({"HWMT order", "seconds", "points processed"});
    for (bool binary : {true, false}) {
      K2HopOptions options;
      options.hwmt_binary_order = binary;
      K2HopStats stats;
      const MineOutcome out = RunK2(rdbms.get(), params, &stats, options);
      table.AddRow({binary ? "binary-subdivision" : "left-to-right",
                    Fmt(out.seconds),
                    std::to_string(stats.points_processed())});
    }
    table.Print();
  }
  std::cout << '\n';
  {
    TablePrinter table({"candidate pruning", "seconds", "points processed"});
    for (bool pruning : {true, false}) {
      K2HopOptions options;
      options.candidate_pruning = pruning;
      K2HopStats stats;
      const MineOutcome out = RunK2(rdbms.get(), params, &stats, options);
      table.AddRow({pruning ? "on (Lemma 5)" : "off", Fmt(out.seconds),
                    std::to_string(stats.points_processed())});
    }
    table.Print();
  }
  std::cout << '\n';
  {
    TablePrinter table({"LSM bloom", "seconds", "bloom skips", "seeks"});
    for (bool bloom : {true, false}) {
      LsmStore::Options options;
      options.use_bloom = bloom;
      LsmStore store("/tmp/k2hop_bench/stores/ablation_bloom", options);
      K2_CHECK_OK(store.BulkLoad(data));
      K2HopStats stats;
      const MineOutcome out = RunK2(&store, params, &stats);
      table.AddRow({bloom ? "on" : "off", Fmt(out.seconds),
                    std::to_string(stats.io.bloom_negative),
                    std::to_string(stats.io.seeks)});
    }
    table.Print();
  }
  return 0;
}
