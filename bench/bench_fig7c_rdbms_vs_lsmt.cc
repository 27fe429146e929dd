// Fig. 7c — k2-RDBMS vs k2-LSMT on the Brinkhoff workload (the largest
// dataset), absolute seconds per k. Paper: k2-LSMT wins on the largest
// dataset; VCoDA could not finish on it at all. Also reports the LSMT
// per-tier read fan-out (tables consulted vs bloom-skipped per tier), the
// access-path detail behind the LSMT column.
#include <sstream>

#include "bench/harness.h"

using namespace k2;
using namespace k2::bench;

namespace {

// "a/b/c" across tiers 0..n-1; "-" when the store never charged a tier.
std::string TierVector(const std::vector<uint64_t>& v) {
  if (v.empty()) return "-";
  std::ostringstream os;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << "/";
    os << v[i];
  }
  return os.str();
}

}  // namespace

int main() {
  PrintBanner("Fig 7c: k2-RDBMS vs k2-LSMT (Brinkhoff)");
  const Dataset& data = Brinkhoff();
  std::cout << data.DebugString() << "\n";
  std::cout << "VCoDA on this dataset: "
            << (VcodaExceedsMemoryBudget(data)
                    ? "DNF (exceeds modelled memory budget, as in the paper)"
                    : "would fit")
            << "\n\n";

  auto rdbms = BuildStore(StoreKind::kBPlusTree, data, "fig7c");
  auto lsmt = BuildStore(StoreKind::kLsm, data, "fig7c");

  TablePrinter table({"k", "k2-RDBMS", "k2-LSMT", "convoys"});
  TablePrinter fanout(
      {"k", "tables/tier (0/1/...)", "bloom-skips/tier", "touched", "skipped"});
  for (int k : {200, 400, 600, 800, 1000, 1200}) {
    const MiningParams params{3, k, 60.0};
    const MineOutcome r = RunK2(rdbms.get(), params);
    K2HopStats lsmt_stats;
    const MineOutcome l = RunK2(lsmt.get(), params, &lsmt_stats);
    const IoStats& tier_io = lsmt_stats.io;
    table.AddRow({std::to_string(k), Fmt(r.seconds), Fmt(l.seconds),
                  std::to_string(r.convoys)});
    fanout.AddRow({std::to_string(k), TierVector(tier_io.tier_sstables_touched),
                   TierVector(tier_io.tier_bloom_skipped),
                   std::to_string(tier_io.sstables_touched),
                   std::to_string(tier_io.bloom_negative)});
  }
  table.Print();
  std::cout << "\nLSMT per-tier read fan-out (tier 0 = freshest flushes):\n";
  fanout.Print();
  return 0;
}
