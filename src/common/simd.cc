#include "common/simd.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define K2_SIMD_X86 1
#include <immintrin.h>
#else
#define K2_SIMD_X86 0
#endif

namespace k2::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar kernels — the dispatch fallback and the differential oracle every
// vector implementation is tested byte-identical against.
// ---------------------------------------------------------------------------

size_t EpsScanScalar(const double* xs, const double* ys, const uint32_t* ids,
                     size_t n, double qx, double qy, double eps2,
                     uint32_t* out) {
  size_t cnt = 0;
  for (size_t j = 0; j < n; ++j) {
    const double dx = xs[j] - qx;
    const double dy = ys[j] - qy;
    if (dx * dx + dy * dy <= eps2) out[cnt++] = ids[j];
  }
  return cnt;
}

uint32_t Crc32cScalar(const void* data, size_t n, uint32_t seed) {
  // Table-driven software CRC-32C (Castagnoli, reflected 0x82F63B78).
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

#if K2_SIMD_X86

// ---------------------------------------------------------------------------
// Compress-store lookup table: for an 8-bit match mask, the vpermd indices
// that pack the matching 32-bit lanes to the front of the register. Built
// once at load time (256 x 8 entries).
// ---------------------------------------------------------------------------

struct CompressTable {
  alignas(32) uint32_t lanes[256][8];

  CompressTable() {
    for (int m = 0; m < 256; ++m) {
      int o = 0;
      for (int l = 0; l < 8; ++l) {
        if (m & (1 << l)) lanes[m][o++] = static_cast<uint32_t>(l);
      }
      for (; o < 8; ++o) lanes[m][o] = 0;
    }
  }
};

const CompressTable kCompress;

// ---------------------------------------------------------------------------
// CRC-32C combine support: a GF(2) operator matrix that advances a CRC over
// N zero bytes, zlib crc32_combine style, specialized to the Castagnoli
// polynomial. Used to stitch the three interleaved hardware-CRC streams
// back into one running checksum.
// ---------------------------------------------------------------------------

uint32_t Gf2MatrixTimes(const uint32_t* mat, uint32_t vec) {
  uint32_t sum = 0;
  int i = 0;
  while (vec != 0) {
    if (vec & 1) sum ^= mat[i];
    vec >>= 1;
    ++i;
  }
  return sum;
}

void Gf2MatrixSquare(uint32_t* square, const uint32_t* mat) {
  for (int i = 0; i < 32; ++i) square[i] = Gf2MatrixTimes(mat, mat[i]);
}

// Advances finalized CRC `crc` over `len` zero bytes (zlib crc32_combine_
// with crc2 = 0, Castagnoli polynomial).
uint32_t CrcShiftZeros(uint32_t crc, size_t len) {
  if (len == 0) return crc;
  uint32_t even[32], odd[32];
  odd[0] = 0x82F63B78u;  // reflected CRC-32C polynomial: operator "x^1"
  uint32_t row = 1;
  for (int i = 1; i < 32; ++i) {
    odd[i] = row;
    row <<= 1;
  }
  Gf2MatrixSquare(even, odd);  // x^2
  Gf2MatrixSquare(odd, even);  // x^4
  do {
    Gf2MatrixSquare(even, odd);  // x^8, x^32, ... : one byte, then squares
    if (len & 1) crc = Gf2MatrixTimes(even, crc);
    len >>= 1;
    if (len == 0) break;
    Gf2MatrixSquare(odd, even);
    if (len & 1) crc = Gf2MatrixTimes(odd, crc);
    len >>= 1;
  } while (len != 0);
  return crc;
}

// Bytes per interleaved stream. Long enough to amortize the combine, short
// enough that WAL-record-sized appends (a few KiB) still hit the fast path.
constexpr size_t kCrcStride = 1024;

// Operator advancing a finalized CRC by kCrcStride zero bytes; columns are
// the images of the 32 basis vectors.
const uint32_t* CrcStrideOperator() {
  static const auto op = [] {
    std::array<uint32_t, 32> m{};
    for (int i = 0; i < 32; ++i) m[i] = CrcShiftZeros(1u << i, kCrcStride);
    return m;
  }();
  return op.data();
}

// ---------------------------------------------------------------------------
// Hardware CRC-32C: the crc32 instruction is SSE4.2, which every AVX2 CPU
// has (DetectMaxLevel checks both), so the AVX2 table carries it.
// ---------------------------------------------------------------------------

// Raw-state hardware CRC over a short range: `crc` is the inverted running
// state, returned in the same domain.
__attribute__((target("sse4.2"))) uint32_t Crc32cHwRaw(const uint8_t* p,
                                                       size_t n,
                                                       uint32_t crc) {
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n > 0) {
    c32 = _mm_crc32_u8(c32, *p++);
    --n;
  }
  return c32;
}

__attribute__((target("sse4.2"))) uint32_t Crc32cHw(const void* data,
                                                    size_t n, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~seed;
  if (n >= 3 * kCrcStride) {
    // 3-way stream interleave: the crc32 instruction has 3-cycle latency
    // but 1-cycle throughput, so three independent streams keep the unit
    // saturated; the GF(2) stride operator stitches them back together.
    const uint32_t* op = CrcStrideOperator();
    do {
      uint64_t c0 = c;
      uint64_t c1 = 0xFFFFFFFFu;
      uint64_t c2 = 0xFFFFFFFFu;
      for (size_t i = 0; i < kCrcStride; i += 8) {
        uint64_t w0, w1, w2;
        std::memcpy(&w0, p + i, 8);
        std::memcpy(&w1, p + kCrcStride + i, 8);
        std::memcpy(&w2, p + 2 * kCrcStride + i, 8);
        c0 = _mm_crc32_u64(c0, w0);
        c1 = _mm_crc32_u64(c1, w1);
        c2 = _mm_crc32_u64(c2, w2);
      }
      const uint32_t f0 = ~static_cast<uint32_t>(c0);
      const uint32_t f1 = ~static_cast<uint32_t>(c1);
      const uint32_t f2 = ~static_cast<uint32_t>(c2);
      uint32_t combined = Gf2MatrixTimes(op, f0) ^ f1;
      combined = Gf2MatrixTimes(op, combined) ^ f2;
      c = ~combined;
      p += 3 * kCrcStride;
      n -= 3 * kCrcStride;
    } while (n >= 3 * kCrcStride);
  }
  return ~Crc32cHwRaw(p, n, c);
}

// ---------------------------------------------------------------------------
// AVX2 eps_scan
// ---------------------------------------------------------------------------

__attribute__((target("avx2,popcnt"))) size_t EpsScanAvx2(
    const double* xs, const double* ys, const uint32_t* ids, size_t n,
    double qx, double qy, double eps2, uint32_t* out) {
  size_t cnt = 0, j = 0;
  const __m256d vqx = _mm256_set1_pd(qx);
  const __m256d vqy = _mm256_set1_pd(qy);
  const __m256d ve = _mm256_set1_pd(eps2);
  for (; j + 8 <= n; j += 8) {
    const __m256d dx0 = _mm256_sub_pd(_mm256_loadu_pd(xs + j), vqx);
    const __m256d dy0 = _mm256_sub_pd(_mm256_loadu_pd(ys + j), vqy);
    const __m256d dx1 = _mm256_sub_pd(_mm256_loadu_pd(xs + j + 4), vqx);
    const __m256d dy1 = _mm256_sub_pd(_mm256_loadu_pd(ys + j + 4), vqy);
    const __m256d d0 =
        _mm256_add_pd(_mm256_mul_pd(dx0, dx0), _mm256_mul_pd(dy0, dy0));
    const __m256d d1 =
        _mm256_add_pd(_mm256_mul_pd(dx1, dx1), _mm256_mul_pd(dy1, dy1));
    const int m =
        _mm256_movemask_pd(_mm256_cmp_pd(d0, ve, _CMP_LE_OQ)) |
        (_mm256_movemask_pd(_mm256_cmp_pd(d1, ve, _CMP_LE_OQ)) << 4);
    if (m != 0) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + j));
      const __m256i perm = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kCompress.lanes[m]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + cnt),
                          _mm256_permutevar8x32_epi32(v, perm));
      cnt += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(m)));
    }
  }
  for (; j < n; ++j) {
    const double dx = xs[j] - qx;
    const double dy = ys[j] - qy;
    if (dx * dx + dy * dy <= eps2) out[cnt++] = ids[j];
  }
  return cnt;
}

#endif  // K2_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

constexpr Kernels kScalarKernels = {EpsScanScalar, Crc32cScalar};

#if K2_SIMD_X86
constexpr Kernels kAvx2Kernels = {EpsScanAvx2, Crc32cHw};
#endif

Level DetectMaxLevel() {
#if K2_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("sse4.2") &&
      __builtin_cpu_supports("popcnt")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

Level ResolveActiveLevel() {
  const Level max = MaxSupportedLevel();
  const char* env = std::getenv("K2_SIMD");
  if (env == nullptr || env[0] == '\0') return max;
  Level requested;
  if (std::strcmp(env, "scalar") == 0) {
    requested = Level::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = Level::kAvx2;
  } else {
    std::fprintf(stderr,
                 "K2_SIMD=%s not recognized (scalar|avx2); auto-detecting\n",
                 env);
    return max;
  }
  if (requested > max) {
    std::fprintf(stderr, "K2_SIMD=%s unsupported on this CPU; using %s\n", env,
                 LevelName(max));
    return max;
  }
  return requested;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Level MaxSupportedLevel() {
  static const Level max = DetectMaxLevel();
  return max;
}

bool Supported(Level level) { return level <= MaxSupportedLevel(); }

Level ActiveLevel() {
  static const Level active = ResolveActiveLevel();
  return active;
}

const Kernels& At(Level level) {
  K2_CHECK(Supported(level));
#if K2_SIMD_X86
  if (level == Level::kAvx2) return kAvx2Kernels;
#endif
  return kScalarKernels;
}

const Kernels& Active() {
  static const Kernels& kernels = At(ActiveLevel());
  return kernels;
}

}  // namespace k2::simd
