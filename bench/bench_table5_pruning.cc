// Table 5 — k/2-hop data pruning performance: min/max points processed and
// pruning percentage over a grid of mining parameters, for all three
// datasets. The paper reports >99 % pruning in most cases on the larger
// datasets. "Processed" is what this miner reads (K2HopStats::
// points_processed: a union fetch reads a point once per tick and group,
// and a proof reads nothing); "probed" is the paper's accounting, which
// reads every set asked at every tick (K2HopStats::probed_points, plus the
// benchmark scans).
#include <limits>

#include "bench/harness.h"

using namespace k2;
using namespace k2::bench;

namespace {

struct PruningRow {
  uint64_t total = 0;
  uint64_t min_processed = std::numeric_limits<uint64_t>::max();
  uint64_t max_processed = 0;
  uint64_t min_probed = std::numeric_limits<uint64_t>::max();
  uint64_t max_probed = 0;
};

PruningRow Measure(const Dataset& data, const std::string& tag,
                   const std::vector<MiningParams>& grid) {
  PruningRow row;
  row.total = data.num_points();
  auto store = BuildStore(StoreKind::kBPlusTree, data, "table5_" + tag);
  for (const MiningParams& params : grid) {
    K2HopStats stats;
    RunK2(store.get(), params, &stats);
    row.min_processed = std::min(row.min_processed, stats.points_processed());
    row.max_processed = std::max(row.max_processed, stats.points_processed());
    const uint64_t probed = stats.io.scanned_points + stats.probed_points;
    row.min_probed = std::min(row.min_probed, probed);
    row.max_probed = std::max(row.max_probed, probed);
  }
  return row;
}

std::string Pct(uint64_t processed, uint64_t total) {
  if (total == 0) return "-";
  return Fmt(100.0 * (1.0 - static_cast<double>(processed) /
                                static_cast<double>(total)),
             2) +
         "%";
}

}  // namespace

int main() {
  PrintBanner("Table 5: k/2-hop data pruning performance");

  const std::vector<MiningParams> trucks_grid = {
      {3, 200, 30.0}, {3, 600, 30.0}, {6, 400, 30.0}, {3, 400, 120.0}};
  const std::vector<MiningParams> tdrive_grid = {
      {3, 200, 60.0}, {3, 600, 60.0}, {6, 400, 60.0}, {3, 400, 200.0}};
  const std::vector<MiningParams> brinkhoff_grid = {
      {3, 200, 60.0}, {3, 600, 60.0}, {6, 400, 60.0}, {3, 400, 200.0}};

  const PruningRow trucks = Measure(Trucks(), "trucks", trucks_grid);
  const PruningRow tdrive = Measure(TDrive(), "tdrive", tdrive_grid);
  const PruningRow brinkhoff = Measure(Brinkhoff(), "brinkhoff", brinkhoff_grid);

  TablePrinter table({"", "Total Points", "Min Processed", "Min Probed",
                      "Max Processed", "Max Probed", "Min Pruning",
                      "Max Pruning"});
  const auto add = [&](const char* name, const PruningRow& row) {
    table.AddRow({name, std::to_string(row.total),
                  std::to_string(row.min_processed),
                  std::to_string(row.min_probed),
                  std::to_string(row.max_processed),
                  std::to_string(row.max_probed),
                  Pct(row.max_processed, row.total),
                  Pct(row.min_processed, row.total)});
  };
  add("Trucks", trucks);
  add("T-Drive", tdrive);
  add("Brinkhoff", brinkhoff);
  table.Print();
  return 0;
}
