#include "common/crc32c.h"

#include "common/simd.h"

namespace k2 {

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  // The scalar table-driven implementation lives in simd.cc as the dispatch
  // fallback and differential oracle; AVX2 machines get the crc32
  // instruction with 3-way stream interleave.
  return simd::Active().crc32c(data, n, seed);
}

}  // namespace k2
