// Runtime-dispatched SIMD kernel layer for the two inner loops the mining
// and storage traffic runs hot: the SoA eps-distance scan behind every
// DBSCAN region query, and the CRC-32C guarding every durable byte of the
// LSM write path. Object-set algebra is not here: convoy sets hold a few
// ids, so ObjectSet runs plain sorted merges.
//
// Dispatch model: two levels. The CPU is probed once (first use); a CPU
// with AVX2 (plus the SSE4.2 crc32 instruction and popcnt, which every
// AVX2 CPU has) runs the AVX2 table, any other CPU and every non-x86 build
// runs the portable scalar table. The `K2_SIMD` environment variable
// (`scalar` or `avx2`) caps the choice below the hardware maximum, which
// is how CI forces the scalar path and how bench runs are made
// attributable.
//
// The scalar-oracle rule: every kernel keeps its portable scalar
// implementation in the dispatch table (`At(Level::kScalar)`), and the
// AVX2 variant must be *byte-identical* to it on every input — not
// "close", not "equivalent up to order". tests/simd_test.cc enforces this
// with randomized property suites across unaligned bases, all tail lengths
// and extreme coordinates; the differential miner suites then prove
// convoy output is unchanged at both levels. The build passes
// -ffp-contract=off, so no compiler fuses eps_scan's `dx*dx + dy*dy` into
// an FMA in one table and not the other: a point exactly at eps must come
// out the same everywhere (EpsScanProperty.MatchesScalarAtExactEps). To
// add a kernel: add the function pointer here, implement scalar first,
// wire it into both tables in simd.cc, then extend the property suite.
#ifndef K2_COMMON_SIMD_H_
#define K2_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace k2::simd {

/// Instruction-set levels in increasing capability order. Both tables are
/// fully populated, so callers never see a null kernel.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// The dispatch table. All kernels are pure functions of their arguments —
/// no hidden state — so tables can be compared against each other freely.
struct Kernels {
  /// Appends to `out` the ids of all points within sqrt(eps2) of (qx, qy):
  /// for each j in [0, n) with (xs[j]-qx)^2 + (ys[j]-qy)^2 <= eps2, writes
  /// ids[j]. Returns the number of ids written, in increasing j order.
  /// `out` must have room for n entries: vector kernels compress-store a
  /// full lane group, so up to one lane width of slack past the written
  /// count is clobbered (never past out + n).
  size_t (*eps_scan)(const double* xs, const double* ys, const uint32_t* ids,
                     size_t n, double qx, double qy, double eps2,
                     uint32_t* out);

  /// CRC-32C (Castagnoli) of `n` bytes, continuing from `seed` (0 = fresh;
  /// a previous return value extends the stream).
  uint32_t (*crc32c)(const void* data, size_t n, uint32_t seed);
};

/// Human-readable level name ("scalar", "avx2"): the values K2_SIMD takes.
const char* LevelName(Level level);

/// True when this machine can run `level` (scalar is always supported).
bool Supported(Level level);

/// The widest level the CPU supports, ignoring the K2_SIMD override.
Level MaxSupportedLevel();

/// The level Active() dispatches to: min(MaxSupportedLevel, K2_SIMD cap).
/// Decided once, on first call; an unknown K2_SIMD value warns on stderr
/// and falls back to auto-detection.
Level ActiveLevel();

/// The dispatched kernel table for this process. Stable for the process
/// lifetime; cheap to call repeatedly.
const Kernels& Active();

/// The kernel table of a specific supported level — the hook the property
/// tests use to pit every implementation against the scalar oracle.
/// Requires Supported(level).
const Kernels& At(Level level);

}  // namespace k2::simd

#endif  // K2_COMMON_SIMD_H_
