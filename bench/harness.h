// Shared infrastructure for the paper-reproduction benchmarks: the three
// standard workloads (generated stand-ins for the paper's Trucks, T-Drive
// and Brinkhoff datasets, routed over a synthetic road network), store
// construction, timed mining runs, and paper-style table printing.
//
// Every bench binary prints the rows/series of one table or figure of the
// paper. Dataset sizes default to laptop scale; set K2_BENCH_SCALE to grow
// them (e.g. K2_BENCH_SCALE=4 quadruples object counts).
#ifndef K2_BENCH_HARNESS_H_
#define K2_BENCH_HARNESS_H_

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/k2hop.h"
#include "core/vcoda.h"
#include "gen/brinkhoff.h"
#include "model/dataset.h"
#include "storage/store.h"

namespace k2::bench {

/// Parses the shared bench CLI flags; call first in main(). Supported:
///   --json <path>   write every timed mining run as a JSON record
///                   ({bench, miner, store, params, wall_ms, convoys,
///                   io_stats}) to <path> (a JSON array) at process exit.
/// The bench name in the records is argv[0]'s basename.
void ParseArgs(int argc, char** argv);

/// Global size multiplier from K2_BENCH_SCALE (default 1.0).
double ScaleFactor();

/// The paper's three workloads at bench scale; generated once per process
/// and cached as binary files under /tmp/k2hop_bench across binaries.
const Dataset& Trucks();
const Dataset& TDrive();
const Dataset& Brinkhoff();
/// Smaller Brinkhoff sibling (~1/4 the points) for the Fig. 8l size pair.
const Dataset& BrinkhoffSmall();

/// Regenerates the Brinkhoff network to report its properties (Table 4).
BrinkhoffStats BrinkhoffProperties();

/// Builds and bulk-loads a store; disk engines live under /tmp/k2hop_bench.
std::unique_ptr<Store> BuildStore(StoreKind kind, const Dataset& data,
                                  const std::string& tag);

/// One timed mining run.
struct MineOutcome {
  double seconds = 0.0;
  size_t convoys = 0;
  bool dnf = false;       ///< did not finish (models the paper's crashes)
  std::string note;       ///< e.g. "mem-budget" for a modelled OOM
};

/// Mines with MineK2Hop five times and reports the median wall time; the
/// convoys and every logical counter must repeat across the five (checked).
/// `stats` gets the first mine's counters and the median phase times. Its
/// --json record adds the Fig. 8i phase times (benchmark_ms, candidates_ms,
/// hwmt_ms, merge_ms, extend_right_ms, extend_left_ms, validation_ms, each
/// the median), reclusterings (every ReCluster call of the run),
/// validation_reclusterings (validation's share) and probed_points (the
/// paper's points-processed accounting, K2HopStats::probed_points).
MineOutcome RunK2(Store* store, const MiningParams& params,
                  K2HopStats* stats = nullptr,
                  const K2HopOptions& options = {});

/// Escapes `s` for embedding inside a JSON string literal: backslash,
/// double quote, and control characters. Every string the --json sink
/// writes goes through this — a quoted or backslashed path in argv[0] or a
/// store name must not corrupt the snapshot file.
std::string JsonEscape(const std::string& s);

/// Typed extra fields for RecordMiningRun. Values are rendered as JSON
/// numbers (non-finite mapped to null) or escaped strings, so no
/// caller-assembled JSON is ever spliced into the record verbatim.
class JsonFields {
 public:
  JsonFields& Num(const std::string& key, double value);
  JsonFields& Int(const std::string& key, uint64_t value);
  JsonFields& Str(const std::string& key, const std::string& value);

  bool empty() const { return json_.empty(); }
  /// ",\"key\":value..." — splices after the record's fixed fields.
  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

/// Appends one mining-run record to the --json sink (no-op without --json).
void RecordMiningRun(const std::string& miner, const Store& store,
                     const MiningParams& params, double seconds,
                     size_t convoys, const IoStats& io,
                     const JsonFields& extra = {});

/// Store-less variant for rows that are not mining runs (e.g. the kernel
/// microbenches): `store_name` fills the record's store key directly. Keys
/// must be machine-independent — bench_compare.py fails on baseline rows
/// missing from a fresh snapshot, so never key a row by a hardware-derived
/// value (put those in `extra` instead).
void RecordBenchRow(const std::string& miner, const std::string& store_name,
                    const MiningParams& params, double seconds,
                    size_t convoys, const IoStats& io,
                    const JsonFields& extra = {});
MineOutcome RunVcoda(Store* store, const MiningParams& params, bool corrected,
                     VcodaStats* stats = nullptr);
MineOutcome RunSpare(Store* store, const MiningParams& params, int workers);
MineOutcome RunDcm(Store* store, const MiningParams& params, int partitions,
                   int workers);

/// Models the paper's 6 GiB JVM heap: VCoDA materializes every candidate of
/// every timestamp, so beyond a row budget the paper's run crashed with OOM
/// (Sec. 6.3.1). Row budget via K2_VCODA_ROW_BUDGET (default 1.5 M).
bool VcodaExceedsMemoryBudget(const Dataset& data);

/// min/max/mean/median of a gain series (the bands of Figs. 7a/7b).
struct GainBand {
  double min = 0.0, max = 0.0, mean = 0.0, median = 0.0;
};
GainBand Band(std::vector<double> gains);

/// Fixed-width aligned text table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print(std::ostream& os = std::cout) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Shorthand numeric formatting ("12.3", "0.004", "DNF").
std::string Fmt(double v, int precision = 3);

/// Prints the standard bench banner (dataset shapes, scale factor).
void PrintBanner(const std::string& title);

}  // namespace k2::bench

#endif  // K2_BENCH_HARNESS_H_
