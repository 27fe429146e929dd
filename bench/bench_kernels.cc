// Kernel microbenches for the runtime-dispatched SIMD layer: neighbor-scan
// throughput (Mpts/s), sorted-set intersection (Melem/s), and CRC-32C
// (GB/s), each measured at the scalar oracle level and at the dispatched
// level of this machine. Each loop runs once untimed to warm up, then
// kRepetitions times; a row records the fastest repetition and its
// throughput, which is far steadier across runs on a shared host than one
// timing. Rows land in the --json flow keyed by the machine-independent
// store names "scalar" and "dispatched" (the concrete level is an extra
// field), so bench_compare.py can track them PR over PR on any runner.
// Before timing, every dispatched kernel is checked against the scalar
// oracle on the bench inputs — a wrong kernel fails the bench, it does not
// post fast numbers.
#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "bench/harness.h"
#include "common/check.h"
#include "common/simd.h"
#include "common/stopwatch.h"

namespace k2::bench {
namespace {

// Defeats dead-code elimination of the timed loops.
volatile uint64_t g_sink = 0;

struct Measurement {
  double seconds = 0.0;
  double throughput = 0.0;  // unit depends on the kernel
};

constexpr int kRepetitions = 5;

/// One untimed warm-up run, then the fastest of kRepetitions timed runs.
template <typename Run>
Measurement Fastest(Run run) {
  run();
  Measurement best = run();
  for (int rep = 1; rep < kRepetitions; ++rep) {
    const Measurement m = run();
    if (m.seconds < best.seconds) best = m;
  }
  return best;
}

struct EpsWorkload {
  std::vector<double> xs, ys;
  std::vector<uint32_t> ids;
  std::vector<double> qx, qy;
  double eps2 = 0.0;
  int reps = 0;
};

EpsWorkload MakeEpsWorkload() {
  EpsWorkload w;
  const size_t n = 4096;
  const size_t queries = 256;
  std::mt19937 rng(20260807);
  std::uniform_real_distribution<double> coord(0.0, 100.0);
  w.xs.resize(n);
  w.ys.resize(n);
  w.ids.resize(n);
  for (size_t j = 0; j < n; ++j) {
    w.xs[j] = coord(rng);
    w.ys[j] = coord(rng);
    w.ids[j] = static_cast<uint32_t>(j);
  }
  for (size_t q = 0; q < queries; ++q) {
    w.qx.push_back(coord(rng));
    w.qy.push_back(coord(rng));
  }
  w.eps2 = 2.0 * 2.0;
  w.reps = 30;
  return w;
}

Measurement RunEpsScan(const simd::Kernels& k, const EpsWorkload& w) {
  std::vector<uint32_t> out(w.xs.size());
  Measurement m;
  Stopwatch sw;
  for (int rep = 0; rep < w.reps; ++rep) {
    for (size_t q = 0; q < w.qx.size(); ++q) {
      g_sink = g_sink + k.eps_scan(w.xs.data(), w.ys.data(), w.ids.data(),
                                   w.xs.size(), w.qx[q], w.qy[q], w.eps2,
                                   out.data());
    }
  }
  m.seconds = sw.ElapsedSeconds();
  const double points = static_cast<double>(w.xs.size()) *
                        static_cast<double>(w.qx.size()) * w.reps;
  m.throughput = points / m.seconds / 1e6;  // Mpts/s
  return m;
}

struct SetWorkload {
  std::vector<uint32_t> a, b;
  int reps = 0;
};

SetWorkload MakeSetWorkload() {
  SetWorkload w;
  std::mt19937 rng(42);
  std::uniform_int_distribution<uint32_t> value(0, 16383);
  auto draw = [&] {
    std::vector<uint32_t> v(6000);
    for (auto& x : v) x = value(rng);
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  w.a = draw();
  w.b = draw();
  w.reps = 3000;
  return w;
}

Measurement RunIntersect(const simd::Kernels& k, const SetWorkload& w) {
  std::vector<uint32_t> out(std::min(w.a.size(), w.b.size()) +
                            simd::kMaxLaneSlack);
  Measurement m;
  Stopwatch sw;
  for (int rep = 0; rep < w.reps; ++rep) {
    g_sink = g_sink + k.intersect(w.a.data(), w.a.size(), w.b.data(),
                                  w.b.size(), out.data());
  }
  m.seconds = sw.ElapsedSeconds();
  const double elems =
      static_cast<double>(w.a.size() + w.b.size()) * w.reps;
  m.throughput = elems / m.seconds / 1e6;  // Melem/s
  return m;
}

struct CrcWorkload {
  std::vector<uint8_t> data;
  int reps = 0;
};

CrcWorkload MakeCrcWorkload() {
  CrcWorkload w;
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> byte(0, 255);
  w.data.resize(8 << 20);
  for (auto& x : w.data) x = static_cast<uint8_t>(byte(rng));
  w.reps = 20;
  return w;
}

Measurement RunCrc(const simd::Kernels& k, const CrcWorkload& w) {
  Measurement m;
  Stopwatch sw;
  for (int rep = 0; rep < w.reps; ++rep) {
    g_sink = g_sink + k.crc32c(w.data.data(), w.data.size(), 0);
  }
  m.seconds = sw.ElapsedSeconds();
  const double bytes = static_cast<double>(w.data.size()) * w.reps;
  m.throughput = bytes / m.seconds / 1e9;  // GB/s
  return m;
}

// Differential sanity on the bench inputs: the dispatched kernels must
// agree with the scalar oracle before their numbers mean anything.
void CheckAgainstOracle(const simd::Kernels& k, const EpsWorkload& eps,
                        const SetWorkload& sets, const CrcWorkload& crc) {
  const simd::Kernels& oracle = simd::At(simd::Level::kScalar);
  std::vector<uint32_t> got(eps.xs.size()), want(eps.xs.size());
  for (size_t q = 0; q < eps.qx.size(); ++q) {
    const size_t want_n =
        oracle.eps_scan(eps.xs.data(), eps.ys.data(), eps.ids.data(),
                        eps.xs.size(), eps.qx[q], eps.qy[q], eps.eps2,
                        want.data());
    const size_t got_n =
        k.eps_scan(eps.xs.data(), eps.ys.data(), eps.ids.data(),
                   eps.xs.size(), eps.qx[q], eps.qy[q], eps.eps2, got.data());
    K2_CHECK(got_n == want_n);
    for (size_t j = 0; j < got_n; ++j) K2_CHECK(got[j] == want[j]);
  }
  got.assign(std::min(sets.a.size(), sets.b.size()) + simd::kMaxLaneSlack, 0);
  want.assign(got.size(), 0);
  const size_t want_n = oracle.intersect(sets.a.data(), sets.a.size(),
                                         sets.b.data(), sets.b.size(),
                                         want.data());
  const size_t got_n = k.intersect(sets.a.data(), sets.a.size(),
                                   sets.b.data(), sets.b.size(), got.data());
  K2_CHECK(got_n == want_n);
  for (size_t j = 0; j < got_n; ++j) K2_CHECK(got[j] == want[j]);
  K2_CHECK(k.crc32c(crc.data.data(), crc.data.size(), 0) ==
           oracle.crc32c(crc.data.data(), crc.data.size(), 0));
}

void Record(const char* kernel, const char* row_store, simd::Level level,
            const Measurement& m, double speedup, const char* unit) {
  JsonFields extra;
  extra.Str("simd_level", simd::LevelName(level))
      .Num(unit, m.throughput)
      .Num("speedup_vs_scalar", speedup);
  RecordBenchRow(std::string("kernel:") + kernel, row_store, MiningParams{},
                 m.seconds, /*convoys=*/0, IoStats{}, extra);
}

}  // namespace

int Main(int argc, char** argv) {
  ParseArgs(argc, argv);
  PrintBanner("SIMD kernel microbenches (scalar vs dispatched)");
  const simd::Level active = simd::ActiveLevel();
  std::cout << "dispatched level: " << simd::LevelName(active)
            << " (cpu max " << simd::LevelName(simd::MaxSupportedLevel())
            << ", K2_SIMD "
            << (std::getenv("K2_SIMD") ? std::getenv("K2_SIMD") : "unset")
            << ")\n";

  const EpsWorkload eps = MakeEpsWorkload();
  const SetWorkload sets = MakeSetWorkload();
  const CrcWorkload crc = MakeCrcWorkload();
  const simd::Kernels& scalar = simd::At(simd::Level::kScalar);
  const simd::Kernels& dispatched = simd::Active();
  CheckAgainstOracle(dispatched, eps, sets, crc);

  TablePrinter table({"kernel", "unit", "scalar", "dispatched", "speedup"});

  const Measurement eps_scalar =
      Fastest([&] { return RunEpsScan(scalar, eps); });
  const Measurement eps_disp =
      Fastest([&] { return RunEpsScan(dispatched, eps); });
  double speedup = eps_disp.throughput / eps_scalar.throughput;
  Record("eps_scan", "scalar", simd::Level::kScalar, eps_scalar, 1.0,
         "mpts_per_s");
  Record("eps_scan", "dispatched", active, eps_disp, speedup, "mpts_per_s");
  table.AddRow({"eps_scan", "Mpts/s", Fmt(eps_scalar.throughput, 1),
                Fmt(eps_disp.throughput, 1), Fmt(speedup, 2) + "x"});

  const Measurement int_scalar =
      Fastest([&] { return RunIntersect(scalar, sets); });
  const Measurement int_disp =
      Fastest([&] { return RunIntersect(dispatched, sets); });
  speedup = int_disp.throughput / int_scalar.throughput;
  Record("intersect", "scalar", simd::Level::kScalar, int_scalar, 1.0,
         "melem_per_s");
  Record("intersect", "dispatched", active, int_disp, speedup, "melem_per_s");
  table.AddRow({"intersect", "Melem/s", Fmt(int_scalar.throughput, 1),
                Fmt(int_disp.throughput, 1), Fmt(speedup, 2) + "x"});

  const Measurement crc_scalar =
      Fastest([&] { return RunCrc(scalar, crc); });
  const Measurement crc_disp =
      Fastest([&] { return RunCrc(dispatched, crc); });
  speedup = crc_disp.throughput / crc_scalar.throughput;
  Record("crc32c", "scalar", simd::Level::kScalar, crc_scalar, 1.0,
         "gb_per_s");
  Record("crc32c", "dispatched", active, crc_disp, speedup, "gb_per_s");
  table.AddRow({"crc32c", "GB/s", Fmt(crc_scalar.throughput, 2),
                Fmt(crc_disp.throughput, 2), Fmt(speedup, 2) + "x"});

  table.Print();
  return 0;
}

}  // namespace k2::bench

int main(int argc, char** argv) { return k2::bench::Main(argc, argv); }
