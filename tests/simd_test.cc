// Property suites for the runtime-dispatched SIMD kernel layer: the AVX2
// implementation of every kernel must be byte-identical to the scalar
// oracle on randomized inputs covering unaligned bases, all tail lengths up
// to well past 2x the 8-lane group, extreme NaN-free coordinates, points
// exactly at eps, and CRC streams across the interleave boundaries. Run
// under K2_SIMD=scalar|avx2 the suites still pass: they pit At(kAvx2)
// against At(kScalar) directly whenever the host supports AVX2.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/crc32c.h"
#include "common/simd.h"

namespace k2 {
namespace {

constexpr uint32_t kSentinel = 0xDEADBEEFu;

std::vector<simd::Level> SupportedVectorLevels() {
  std::vector<simd::Level> levels;
  if (simd::Supported(simd::Level::kAvx2)) levels.push_back(simd::Level::kAvx2);
  return levels;
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(simd::Supported(simd::Level::kScalar));
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
}

TEST(SimdDispatchTest, ActiveLevelIsSupportedAndStable) {
  const simd::Level active = simd::ActiveLevel();
  EXPECT_TRUE(simd::Supported(active));
  EXPECT_LE(static_cast<int>(active),
            static_cast<int>(simd::MaxSupportedLevel()));
  EXPECT_EQ(&simd::Active(), &simd::At(active));
}

TEST(SimdDispatchTest, EveryLevelTableFullyPopulated) {
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    if (!simd::Supported(level)) continue;
    const simd::Kernels& k = simd::At(level);
    EXPECT_NE(k.eps_scan, nullptr);
    EXPECT_NE(k.crc32c, nullptr);
  }
}

// ---------------------------------------------------------------------------
// eps_scan
// ---------------------------------------------------------------------------

class EpsScanProperty : public ::testing::Test {
 protected:
  // Runs one randomized comparison: scalar vs `level` on identical input,
  // from an `offset`-element-unaligned base, checking count, payload, and
  // that nothing was written at or past index n. With `at_point`, eps2 is
  // the squared distance of one random point, so that point sits exactly on
  // the boundary.
  void Check(simd::Level level, std::mt19937* rng, size_t n, size_t offset,
             double coord_scale, bool at_point = false) {
    std::uniform_real_distribution<double> coord(-coord_scale, coord_scale);
    // Slack before (alignment offset) and after (overrun detection).
    std::vector<double> xs(offset + n), ys(offset + n);
    std::vector<uint32_t> ids(offset + n);
    for (size_t j = 0; j < offset + n; ++j) {
      xs[j] = coord(*rng);
      ys[j] = coord(*rng);
      ids[j] = static_cast<uint32_t>(j) * 7u + 1u;
    }
    const double qx = coord(*rng);
    const double qy = coord(*rng);
    // eps2 spans "matches nothing" to "matches everything".
    std::uniform_real_distribution<double> frac(0.0, 2.0);
    double eps2 = frac(*rng) * coord_scale * coord_scale;
    if (at_point && n > 0) {
      const size_t j = offset + std::uniform_int_distribution<size_t>(
                                    0, n - 1)(*rng);
      const double dx = xs[j] - qx;
      const double dy = ys[j] - qy;
      eps2 = dx * dx + dy * dy;
    }

    constexpr size_t kPad = 16;
    std::vector<uint32_t> want(n + kPad, kSentinel);
    std::vector<uint32_t> got(n + kPad, kSentinel);
    const size_t want_n = simd::At(simd::Level::kScalar)
                              .eps_scan(xs.data() + offset, ys.data() + offset,
                                        ids.data() + offset, n, qx, qy, eps2,
                                        want.data());
    const size_t got_n = simd::At(level).eps_scan(
        xs.data() + offset, ys.data() + offset, ids.data() + offset, n, qx,
        qy, eps2, got.data());
    ASSERT_EQ(got_n, want_n) << "level=" << simd::LevelName(level)
                             << " n=" << n << " offset=" << offset;
    for (size_t j = 0; j < got_n; ++j) {
      ASSERT_EQ(got[j], want[j]) << "level=" << simd::LevelName(level)
                                 << " n=" << n << " at " << j;
    }
    // The compress-store slack contract: writes stay strictly below out + n.
    for (size_t j = n; j < n + kPad; ++j) {
      ASSERT_EQ(got[j], kSentinel)
          << "level=" << simd::LevelName(level) << " wrote past out+" << n;
    }
  }
};

TEST_F(EpsScanProperty, MatchesScalarOnAllTailLengthsAndAlignments) {
  std::mt19937 rng(20260807);
  for (simd::Level level : SupportedVectorLevels()) {
    // Every length 0..2x the widest lane group and beyond, every base
    // misalignment 0..3 elements.
    for (size_t n = 0; n <= 40; ++n) {
      for (size_t offset = 0; offset < 4; ++offset) {
        Check(level, &rng, n, offset, 100.0);
      }
    }
    // Larger random shapes.
    std::uniform_int_distribution<size_t> n_dist(41, 512);
    for (int it = 0; it < 200; ++it) {
      Check(level, &rng, n_dist(rng), it % 4, 100.0);
    }
  }
}

TEST_F(EpsScanProperty, MatchesScalarOnExtremeCoordinates) {
  std::mt19937 rng(7);
  for (simd::Level level : SupportedVectorLevels()) {
    for (const double scale : {1e-12, 1e-3, 1e6, 1e150, 1e300}) {
      for (int it = 0; it < 50; ++it) {
        Check(level, &rng, 37, it % 4, scale);
      }
    }
  }
}

// A point exactly at eps must come out the same in the scalar oracle, the
// vector body and the tail. A build that contracts `dx*dx + dy*dy` into a
// fused multiply-add rounds that sum differently in some of them and flips
// such points; the build passes -ffp-contract=off to rule that out.
TEST_F(EpsScanProperty, MatchesScalarAtExactEps) {
  std::mt19937 rng(20261018);
  for (simd::Level level : SupportedVectorLevels()) {
    for (size_t n = 1; n <= 40; ++n) {
      for (int it = 0; it < 200; ++it) {
        Check(level, &rng, n, it % 4, 100.0, /*at_point=*/true);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// crc32c
// ---------------------------------------------------------------------------

TEST(CrcKernelProperty, MatchesScalarOnAllShortLengths) {
  std::mt19937 rng(1);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<uint32_t> seed_dist;
  for (simd::Level level : SupportedVectorLevels()) {
    const simd::Kernels& k = simd::At(level);
    const simd::Kernels& oracle = simd::At(simd::Level::kScalar);
    for (size_t n = 0; n <= 200; ++n) {
      std::vector<uint8_t> data(n + 8);
      for (auto& x : data) x = static_cast<uint8_t>(byte(rng));
      const uint32_t seed = (n % 3 == 0) ? 0u : seed_dist(rng);
      for (size_t offset = 0; offset < 8; offset += (n % 2) ? 3 : 1) {
        ASSERT_EQ(k.crc32c(data.data() + offset, n, seed),
                  oracle.crc32c(data.data() + offset, n, seed))
            << "level=" << simd::LevelName(level) << " n=" << n
            << " offset=" << offset;
      }
    }
  }
}

TEST(CrcKernelProperty, MatchesScalarAcrossStreamInterleaveBoundaries) {
  std::mt19937 rng(2);
  std::uniform_int_distribution<int> byte(0, 255);
  // 3 * 1024 is the interleave block; hit every boundary behavior.
  const size_t kBlock = 3 * 1024;
  for (simd::Level level : SupportedVectorLevels()) {
    const simd::Kernels& k = simd::At(level);
    const simd::Kernels& oracle = simd::At(simd::Level::kScalar);
    for (const size_t n :
         {kBlock - 1, kBlock, kBlock + 1, kBlock + 7, 2 * kBlock - 3,
          2 * kBlock, 3 * kBlock + 5, size_t{100000}}) {
      std::vector<uint8_t> data(n);
      for (auto& x : data) x = static_cast<uint8_t>(byte(rng));
      ASSERT_EQ(k.crc32c(data.data(), n, 0),
                oracle.crc32c(data.data(), n, 0))
          << "level=" << simd::LevelName(level) << " n=" << n;
      ASSERT_EQ(k.crc32c(data.data(), n, 0x12345678u),
                oracle.crc32c(data.data(), n, 0x12345678u))
          << "level=" << simd::LevelName(level) << " n=" << n << " seeded";
    }
  }
}

TEST(CrcKernelProperty, SeedChainingEqualsOneShot) {
  std::mt19937 rng(3);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<size_t> split_dist;
  for (simd::Level level : SupportedVectorLevels()) {
    const simd::Kernels& k = simd::At(level);
    for (const size_t n : {size_t{1}, size_t{100}, size_t{5000}}) {
      std::vector<uint8_t> data(n);
      for (auto& x : data) x = static_cast<uint8_t>(byte(rng));
      const size_t split = split_dist(rng) % (n + 1);
      const uint32_t whole = k.crc32c(data.data(), n, 0);
      const uint32_t part = k.crc32c(data.data(), split, 0);
      ASSERT_EQ(k.crc32c(data.data() + split, n - split, part), whole)
          << "level=" << simd::LevelName(level) << " n=" << n
          << " split=" << split;
    }
  }
}

TEST(CrcKernelProperty, PublicEntryPointKnownAnswer) {
  // RFC 3720 test vector: CRC-32C of 32 zero bytes.
  const uint8_t zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  // "123456789" is the classic check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

}  // namespace
}  // namespace k2
