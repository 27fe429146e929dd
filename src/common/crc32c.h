// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum guarding every durable byte of the LSM write path: WAL record
// frames, the SSTable footer's metadata region, and the MANIFEST trailer.
// Castagnoli rather than the zlib polynomial for its better burst-error
// detection — and because SSE4.2 implements exactly this polynomial in
// hardware. The implementation runtime-dispatches through common/simd.h
// (hardware crc32 with 3-way stream interleave on AVX2 CPUs, table-driven
// software fallback otherwise); K2_SIMD=scalar forces the fallback.
#ifndef K2_COMMON_CRC32C_H_
#define K2_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace k2 {

/// CRC-32C of `n` bytes starting at `data`, continuing from `seed` (pass 0
/// for a fresh checksum; pass a previous return value to extend it).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

}  // namespace k2

#endif  // K2_COMMON_CRC32C_H_
