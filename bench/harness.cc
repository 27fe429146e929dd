#include "bench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <tuple>

#include "baselines/dcm.h"
#include "baselines/spare.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "gen/tdrive.h"
#include "gen/trucks.h"
#include "io/csv.h"

namespace k2::bench {

namespace {

const char* kCacheDir = "/tmp/k2hop_bench";

/// --json sink: collects one JSON object per timed mining run and writes
/// them as an array when the process exits.
struct JsonSink {
  std::string path;
  std::string bench;  // argv[0] basename
  std::vector<std::string> records;

  ~JsonSink() {
    if (path.empty()) return;
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < records.size(); ++i) {
      out << "  " << records[i] << (i + 1 < records.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }
};

JsonSink& Sink() {
  static JsonSink sink;
  return sink;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Appends one mining-run record to the sink (no-op without --json).
void RecordRun(const std::string& miner, const Store& store,
               const MiningParams& params, double seconds, size_t convoys,
               const IoStats& io) {
  RecordMiningRun(miner, store, params, seconds, convoys, io);
}

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}

/// Loads a cached dataset or generates + caches it.
Dataset CachedDataset(const std::string& name,
                      const std::function<Dataset()>& generate) {
  std::filesystem::create_directories(kCacheDir);
  const std::string path = std::string(kCacheDir) + "/" + name + ".bin";
  if (std::filesystem::exists(path)) {
    auto loaded = ReadBinary(path);
    if (loaded.ok()) return loaded.MoveValue();
  }
  Dataset ds = generate();
  K2_CHECK_OK(WriteBinary(ds, path));
  return ds;
}

std::string ScaleTag() {
  std::ostringstream os;
  os << "s" << ScaleFactor();
  return os.str();
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonFields& JsonFields::Num(const std::string& key, double value) {
  json_ += ",\"" + JsonEscape(key) + "\":" + JsonNumber(value);
  return *this;
}

JsonFields& JsonFields::Int(const std::string& key, uint64_t value) {
  json_ += ",\"" + JsonEscape(key) + "\":" + std::to_string(value);
  return *this;
}

JsonFields& JsonFields::Str(const std::string& key, const std::string& value) {
  json_ += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  return *this;
}

void RecordMiningRun(const std::string& miner, const Store& store,
                     const MiningParams& params, double seconds,
                     size_t convoys, const IoStats& io,
                     const JsonFields& extra) {
  RecordBenchRow(miner, store.name(), params, seconds, convoys, io, extra);
}

void RecordBenchRow(const std::string& miner, const std::string& store_name,
                    const MiningParams& params, double seconds,
                    size_t convoys, const IoStats& io,
                    const JsonFields& extra) {
  JsonSink& sink = Sink();
  if (sink.path.empty()) return;
  std::ostringstream os;
  os << "{\"bench\":\"" << JsonEscape(sink.bench) << "\",\"miner\":\""
     << JsonEscape(miner) << "\",\"store\":\"" << JsonEscape(store_name)
     << "\",\"params\":{\"m\":" << params.m << ",\"k\":" << params.k
     << ",\"eps\":" << JsonNumber(params.eps) << "},\"wall_ms\":"
     << JsonNumber(seconds * 1e3) << ",\"convoys\":" << convoys
     << ",\"io_stats\":{\"points_read\":" << io.points_read()
     << ",\"point_fetches\":" << io.point_fetches
     << ",\"point_queries\":" << io.point_queries
     << ",\"scanned_points\":" << io.scanned_points
     << ",\"bytes_read\":" << io.bytes_read << ",\"seeks\":" << io.seeks
     << ",\"pages_read\":" << io.pages_read
     << ",\"pages_cached\":" << io.pages_cached
     << ",\"bloom_negative\":" << io.bloom_negative << "}" << extra.json()
     << "}";
  sink.records.push_back(os.str());
}

void ParseArgs(int argc, char** argv) {
  if (argc > 0) {
    Sink().bench = std::filesystem::path(argv[0]).filename().string();
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "--json requires a path argument\n";
        std::exit(2);
      }
      Sink().path = argv[++i];
    } else {
      std::cerr << "unknown bench flag: " << arg
                << " (supported: --json <path>)\n";
      std::exit(2);
    }
  }
}

double ScaleFactor() {
  static const double scale = std::max(0.05, EnvDouble("K2_BENCH_SCALE", 1.0));
  return scale;
}

const Dataset& Trucks() {
  static const Dataset ds = CachedDataset("trucks_" + ScaleTag(), [] {
    TrucksParams params;
    params.num_trajectories =
        std::max(20, static_cast<int>(276 * ScaleFactor()));
    params.ticks = 1320;
    // Slow urban speeds so delivery round trips span a few hundred ticks,
    // like the paper's 30 s sampled truck-days that this fleet stands in for.
    params.grid.side_speed = 18.0;
    params.grid.main_speed = 30.0;
    params.grid.highway_speed = 45.0;
    return GenerateTrucks(params);
  });
  return ds;
}

const Dataset& TDrive() {
  static const Dataset ds = CachedDataset("tdrive_" + ScaleTag(), [] {
    TDriveParams params;
    params.scale = ScaleFactor() / 24.0;  // ~430 taxis at scale 1
    params.ticks = 1900;
    params.grid.side_speed = 150.0;
    params.grid.main_speed = 300.0;
    params.grid.highway_speed = 550.0;
    return GenerateTDrive(params);
  });
  return ds;
}

namespace {

BrinkhoffParams BrinkhoffConfig(double size_factor) {
  BrinkhoffParams params;
  params.grid.nx = 20;
  params.grid.ny = 20;
  params.grid.spacing = 650.0;
  params.grid.side_speed = 90.0;
  params.grid.main_speed = 180.0;
  params.grid.highway_speed = 320.0;
  params.max_time = 1800;
  params.obj_begin = std::max(50, static_cast<int>(2400 * size_factor));
  params.obj_time = std::max(1, static_cast<int>(26 * size_factor));
  return params;
}

}  // namespace

const Dataset& Brinkhoff() {
  static const Dataset ds = CachedDataset("brinkhoff_" + ScaleTag(), [] {
    return GenerateBrinkhoff(BrinkhoffConfig(ScaleFactor()));
  });
  return ds;
}

const Dataset& BrinkhoffSmall() {
  static const Dataset ds = CachedDataset("brinkhoff_small_" + ScaleTag(), [] {
    return GenerateBrinkhoff(BrinkhoffConfig(ScaleFactor() / 4.0));
  });
  return ds;
}

BrinkhoffStats BrinkhoffProperties() {
  BrinkhoffStats stats;
  GenerateBrinkhoff(BrinkhoffConfig(ScaleFactor()), &stats);
  return stats;
}

std::unique_ptr<Store> BuildStore(StoreKind kind, const Dataset& data,
                                  const std::string& tag) {
  const std::string dir =
      std::string(kCacheDir) + "/stores/" + tag + "_" + StoreKindName(kind);
  std::filesystem::remove_all(dir);
  auto store_result = CreateStore(kind, dir);
  K2_CHECK(store_result.ok());
  std::unique_ptr<Store> store = store_result.MoveValue();
  K2_CHECK_OK(store->BulkLoad(data));
  return store;
}

namespace {

/// The median of `v` (the upper one of an even count).
double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// The logical counters of a mine: they depend on the data and the
/// parameters only, so every mine of a row must repeat them.
auto ExactCounters(const K2HopStats& s) {
  return std::make_tuple(
      s.io.snapshot_scans, s.io.scanned_points, s.io.point_fetches,
      s.io.point_queries, s.io.point_hits, s.reclusterings, s.probed_points,
      s.candidate_clusters, s.spanning_convoys, s.merged_convoys,
      s.prevalidation_convoys, s.validation.reclusterings,
      s.validation.proven_ticks, s.validation.split_rounds);
}

}  // namespace

MineOutcome RunK2(Store* store, const MiningParams& params, K2HopStats* stats,
                  const K2HopOptions& options) {
  // One mine is too noisy on a shared host, so a row is the median of
  // kMines. The convoys and every logical counter must repeat exactly.
  constexpr int kMines = 5;
  static const char* const kPhases[] = {
      "benchmark",    "candidates",  "HWMT",      "merge",
      "extend-right", "extend-left", "validation"};
  std::vector<K2HopStats> runs(kMines);
  std::vector<double> seconds(kMines);
  std::vector<Convoy> convoys;
  for (int i = 0; i < kMines; ++i) {
    Stopwatch sw;
    auto result = MineK2Hop(store, params, options, &runs[i]);
    seconds[i] = sw.ElapsedSeconds();
    K2_CHECK(result.ok());
    if (i == 0) {
      convoys = result.MoveValue();
    } else {
      K2_CHECK(result.value() == convoys);
      K2_CHECK(ExactCounters(runs[i]) == ExactCounters(runs[0]));
    }
  }
  // The first mine's stats, with the median phase times. Its physical IO
  // counters are those of a mine on a cold handle, as before.
  K2HopStats* s = stats != nullptr ? stats : &runs[0];
  if (stats != nullptr) *stats = runs[0];
  s->phases = PhaseTimer();
  for (const char* phase : kPhases) {
    std::vector<double> times;
    for (const K2HopStats& run : runs) times.push_back(run.phases.Get(phase));
    s->phases.Add(phase, Median(std::move(times)));
  }
  MineOutcome outcome;
  outcome.seconds = Median(seconds);
  outcome.convoys = convoys.size();
  // Fig. 8i's phases, flat, so the ledger shows where a mine spent its time.
  const auto ms = [&](const char* phase) { return s->phases.Get(phase) * 1e3; };
  JsonFields phases;
  phases.Num("benchmark_ms", ms("benchmark"))
      .Num("candidates_ms", ms("candidates"))
      .Num("hwmt_ms", ms("HWMT"))
      .Num("merge_ms", ms("merge"))
      .Num("extend_right_ms", ms("extend-right"))
      .Num("extend_left_ms", ms("extend-left"))
      .Num("validation_ms", ms("validation"))
      .Int("reclusterings", s->reclusterings)
      .Int("validation_reclusterings", s->validation.reclusterings)
      .Int("probed_points", s->probed_points);
  RecordMiningRun("k2hop", *store, params, outcome.seconds, outcome.convoys,
                  s->io, phases);
  return outcome;
}

MineOutcome RunVcoda(Store* store, const MiningParams& params, bool corrected,
                     VcodaStats* stats) {
  MineOutcome outcome;
  const IoStats before = store->io_stats();
  Stopwatch sw;
  auto result = MineVcoda(store, params, corrected, stats);
  outcome.seconds = sw.ElapsedSeconds();
  K2_CHECK(result.ok());
  outcome.convoys = result.value().size();
  RecordRun(corrected ? "vcoda*" : "vcoda", *store, params, outcome.seconds,
            outcome.convoys, IoStats::Delta(store->io_stats(), before));
  return outcome;
}

MineOutcome RunSpare(Store* store, const MiningParams& params, int workers) {
  MineOutcome outcome;
  SpareOptions options;
  options.num_workers = workers;
  SpareStats stats;
  const IoStats before = store->io_stats();
  Stopwatch sw;
  auto result = MineSpare(store, params, options, &stats);
  outcome.seconds = sw.ElapsedSeconds();
  K2_CHECK(result.ok());
  outcome.convoys = result.value().size();
  if (stats.budget_exhausted) {
    outcome.dnf = true;
    outcome.note = "enum-budget";
  }
  RecordRun("spare", *store, params, outcome.seconds, outcome.convoys,
            IoStats::Delta(store->io_stats(), before));
  return outcome;
}

MineOutcome RunDcm(Store* store, const MiningParams& params, int partitions,
                   int workers) {
  MineOutcome outcome;
  DcmOptions options;
  options.num_partitions = partitions;
  options.num_workers = workers;
  const IoStats before = store->io_stats();
  Stopwatch sw;
  auto result = MineDcm(store, params, options);
  outcome.seconds = sw.ElapsedSeconds();
  K2_CHECK(result.ok());
  outcome.convoys = result.value().size();
  RecordRun("dcm", *store, params, outcome.seconds, outcome.convoys,
            IoStats::Delta(store->io_stats(), before));
  return outcome;
}

bool VcodaExceedsMemoryBudget(const Dataset& data) {
  const double budget = EnvDouble("K2_VCODA_ROW_BUDGET", 1.5e6);
  return static_cast<double>(data.num_points()) > budget;
}

GainBand Band(std::vector<double> gains) {
  GainBand band;
  if (gains.empty()) return band;
  std::sort(gains.begin(), gains.end());
  band.min = gains.front();
  band.max = gains.back();
  band.mean = std::accumulate(gains.begin(), gains.end(), 0.0) /
              static_cast<double>(gains.size());
  const size_t mid = gains.size() / 2;
  band.median = gains.size() % 2 == 1
                    ? gains[mid]
                    : 0.5 * (gains[mid - 1] + gains[mid]);
  return band;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      os << "  " << std::setw(static_cast<int>(widths[c]))
         << (c < row.size() ? row[c] : "");
    }
    os << '\n';
  };
  print_row(headers_);
  size_t total = headers_.size() * 2;
  for (size_t w : widths) total += w;
  os << "  " << std::string(total - 2, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string Fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void PrintBanner(const std::string& title) {
  std::cout << "==== " << title << " ====\n"
            << "scale=" << ScaleFactor() << "  (set K2_BENCH_SCALE to change)\n";
}

}  // namespace k2::bench
