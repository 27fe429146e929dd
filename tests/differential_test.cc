// Differential correctness: on randomized small datasets, the production
// miners must agree with the brute-force gold oracles:
//   * PCCD == GoldMaximalConvoys       (partially connected spec)
//   * k/2-hop == VCoDA* == GoldFullyConnectedConvoys (FC spec, Def. 8)
//   * k/2-hop output is identical across all four storage engines.
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "baselines/cmc.h"
#include "baselines/cuts.h"
#include "baselines/dcm.h"
#include "baselines/gold.h"
#include "baselines/spare.h"
#include "core/k2hop.h"
#include "core/vcoda.h"
#include "gen/synthetic.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeMemStore;
using ::k2::testing::ScratchDir;
using ::k2::testing::Str;

struct DiffCase {
  uint64_t seed;
  int num_objects;
  int num_ticks;
  double area;   // smaller => denser => more clusters
  int m;
  int k;
  double eps;
};

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  const DiffCase& c = info.param;
  return "seed" + std::to_string(c.seed) + "_n" +
         std::to_string(c.num_objects) + "_t" + std::to_string(c.num_ticks) +
         "_m" + std::to_string(c.m) + "_k" + std::to_string(c.k);
}

class DifferentialTest : public ::testing::TestWithParam<DiffCase> {
 protected:
  Dataset MakeData() const {
    const DiffCase& c = GetParam();
    RandomWalkSpec spec;
    spec.seed = c.seed;
    spec.num_objects = c.num_objects;
    spec.num_ticks = c.num_ticks;
    spec.area = c.area;
    spec.step = c.area / 8.0;
    return GenerateRandomWalk(spec);
  }
  MiningParams Params() const {
    const DiffCase& c = GetParam();
    return MiningParams{c.m, c.k, c.eps};
  }
};

TEST_P(DifferentialTest, PccdMatchesGoldMaximalConvoys) {
  const Dataset data = MakeData();
  auto store = MakeMemStore(data);
  auto result = MinePccd(store.get(), Params());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_SAME_CONVOYS(result.value(), GoldMaximalConvoys(data, Params()));
}

TEST_P(DifferentialTest, DcmMatchesGoldMaximalConvoys) {
  const Dataset data = MakeData();
  auto store = MakeMemStore(data);
  DcmOptions options;
  options.num_partitions = 3;
  options.num_workers = 2;
  auto result = MineDcm(store.get(), Params(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_SAME_CONVOYS(result.value(), GoldMaximalConvoys(data, Params()));
}

TEST_P(DifferentialTest, SpareMatchesGoldMaximalConvoys) {
  const Dataset data = MakeData();
  auto store = MakeMemStore(data);
  SpareOptions options;
  options.num_workers = 2;
  SpareStats stats;
  auto result = MineSpare(store.get(), Params(), options, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(stats.budget_exhausted);
  EXPECT_SAME_CONVOYS(result.value(), GoldMaximalConvoys(data, Params()));
}

TEST_P(DifferentialTest, CutsMatchesGoldMaximalConvoys) {
  const Dataset data = MakeData();
  auto store = MakeMemStore(data);
  auto result = MineCuts(store.get(), Params());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_SAME_CONVOYS(result.value(), GoldMaximalConvoys(data, Params()));
}

TEST_P(DifferentialTest, VcodaStarMatchesGoldFullyConnected) {
  const Dataset data = MakeData();
  auto store = MakeMemStore(data);
  auto result = MineVcoda(store.get(), Params(), /*corrected=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_SAME_CONVOYS(result.value(),
                      GoldFullyConnectedConvoys(data, Params()));
}

TEST_P(DifferentialTest, K2HopMatchesGoldFullyConnected) {
  const Dataset data = MakeData();
  auto store = MakeMemStore(data);
  auto result = MineK2Hop(store.get(), Params());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_SAME_CONVOYS(result.value(),
                      GoldFullyConnectedConvoys(data, Params()));
}

TEST_P(DifferentialTest, K2HopAgreesAcrossStorageEngines) {
  const Dataset data = MakeData();
  auto mem = MakeMemStore(data);
  auto expected = MineK2Hop(mem.get(), Params());
  ASSERT_TRUE(expected.ok());
  const std::string dir = ScratchDir(
      "diff_" + std::to_string(GetParam().seed) + "_" +
      std::to_string(GetParam().num_objects) + std::to_string(GetParam().k));
  for (StoreKind kind :
       {StoreKind::kFile, StoreKind::kBPlusTree, StoreKind::kLsm}) {
    auto store_result = CreateStore(kind, dir + "/" + StoreKindName(kind));
    ASSERT_TRUE(store_result.ok()) << store_result.status().ToString();
    std::unique_ptr<Store> store = store_result.MoveValue();
    ASSERT_TRUE(store->BulkLoad(data).ok());
    auto result = MineK2Hop(store.get(), Params());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_SAME_CONVOYS(result.value(), expected.value())
        << "engine: " << store->name();
  }
}

TEST_P(DifferentialTest, K2HopLeftToRightHwmtOrderAgrees) {
  const Dataset data = MakeData();
  auto store = MakeMemStore(data);
  K2HopOptions options;
  options.hwmt_binary_order = false;
  auto result = MineK2Hop(store.get(), Params(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_SAME_CONVOYS(result.value(),
                      GoldFullyConnectedConvoys(data, Params()));
}

TEST_P(DifferentialTest, K2HopWithoutCandidatePruningAgrees) {
  const Dataset data = MakeData();
  auto store = MakeMemStore(data);
  K2HopOptions options;
  options.candidate_pruning = false;
  auto result = MineK2Hop(store.get(), Params(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_SAME_CONVOYS(result.value(),
                      GoldFullyConnectedConvoys(data, Params()));
}

// Dense random walks: lots of accidental clusters, splits and merges.
INSTANTIATE_TEST_SUITE_P(
    DenseRandomWalks, DifferentialTest,
    ::testing::Values(
        DiffCase{1, 8, 14, 40.0, 2, 3, 8.0}, DiffCase{2, 8, 14, 40.0, 2, 4, 8.0},
        DiffCase{3, 9, 12, 50.0, 3, 3, 10.0},
        DiffCase{4, 10, 16, 60.0, 2, 5, 9.0},
        DiffCase{5, 10, 10, 45.0, 3, 4, 12.0},
        DiffCase{6, 7, 20, 35.0, 2, 6, 7.0},
        DiffCase{7, 12, 12, 70.0, 2, 4, 10.0},
        DiffCase{8, 12, 15, 55.0, 3, 5, 11.0},
        DiffCase{9, 6, 24, 30.0, 2, 8, 8.0},
        DiffCase{10, 11, 13, 65.0, 2, 3, 9.0}),
    CaseName);

// Sparse walks: few clusters, tests the "nothing to find" paths.
INSTANTIATE_TEST_SUITE_P(
    SparseRandomWalks, DifferentialTest,
    ::testing::Values(DiffCase{21, 8, 15, 400.0, 2, 4, 8.0},
                      DiffCase{22, 10, 18, 500.0, 3, 5, 10.0},
                      DiffCase{23, 12, 12, 600.0, 2, 3, 9.0},
                      DiffCase{24, 9, 20, 450.0, 2, 6, 7.0}),
    CaseName);

// Larger k relative to the tick count: benchmark points become sparse and
// hop-windows wide.
INSTANTIATE_TEST_SUITE_P(
    WideHopWindows, DifferentialTest,
    ::testing::Values(DiffCase{31, 8, 24, 45.0, 2, 10, 8.0},
                      DiffCase{32, 8, 30, 45.0, 2, 12, 8.0},
                      DiffCase{33, 10, 26, 55.0, 3, 9, 10.0},
                      DiffCase{34, 9, 21, 50.0, 2, 7, 9.0},
                      DiffCase{35, 10, 28, 50.0, 2, 11, 9.0}),
    CaseName);

}  // namespace
}  // namespace k2
