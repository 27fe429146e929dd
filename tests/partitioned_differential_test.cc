// Partitioned-vs-batch differential: mining a store in time shards
// (MineK2Hop with num_shards) must produce a convoy set IDENTICAL (same vector,
// canonical order) to batch MineK2Hop with the same parameters — for every
// storage engine, every shard count in {1, 2, 3, 7} plus a prime count vs.
// k, on adversarial dense random walks, gapped tick streams, and Brinkhoff
// data. A gold-oracle anchor keeps a shared batch/partitioned bug from
// hiding behind the mutual comparison.
#include <memory>

#include <gtest/gtest.h>

#include "baselines/gold.h"
#include "core/k2hop.h"
#include "gen/brinkhoff.h"
#include "gen/synthetic.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeMemStore;
using ::k2::testing::ScratchDir;
using ::k2::testing::Str;

std::vector<Convoy> BatchMine(const Dataset& data, const MiningParams& params) {
  auto store = MakeMemStore(data);
  auto result = MineK2Hop(store.get(), params);
  K2_CHECK(result.ok());
  return result.MoveValue();
}

/// Bulk-loads `data` into a fresh store of `kind` and asserts exact batch
/// equality for every shard count (the store is read-only during mining,
/// so all shard counts run against the same instance).
void ExpectPartitionedMatchesBatch(const Dataset& data,
                                   const MiningParams& params, StoreKind kind,
                                   const std::string& tag,
                                   const std::vector<int>& shard_counts) {
  const std::vector<Convoy> expected = BatchMine(data, params);
  auto store_result = CreateStore(
      kind, ScratchDir("part_diff_" + tag) + "/" + StoreKindName(kind));
  ASSERT_TRUE(store_result.ok()) << store_result.status().ToString();
  std::unique_ptr<Store> store = store_result.MoveValue();
  ASSERT_TRUE(store->BulkLoad(data).ok());

  for (int shards : shard_counts) {
    K2HopOptions options;
    options.num_shards = shards;
    options.num_threads = shards > 1 ? 3 : 1;  // exercise the threaded path
    auto mined = MineK2Hop(store.get(), params, options);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    // Byte-exact: both sides are in canonical sorted order.
    EXPECT_EQ(mined.value(), expected)
        << "engine: " << StoreKindName(kind) << " shards: " << shards
        << "\npartitioned:\n"
        << Str(mined.value()) << "batch:\n"
        << Str(expected);
  }
}

struct PartitionCase {
  uint64_t seed;
  int num_objects;
  int num_ticks;
  double area;
  int m;
  int k;
  double eps;
  int gap_modulus;  // 0 = no gaps; else drop ticks with t % gap_modulus == 1
};

std::string CaseName(const ::testing::TestParamInfo<PartitionCase>& info) {
  const PartitionCase& c = info.param;
  return "seed" + std::to_string(c.seed) + "_n" +
         std::to_string(c.num_objects) + "_t" + std::to_string(c.num_ticks) +
         "_m" + std::to_string(c.m) + "_k" + std::to_string(c.k) +
         (c.gap_modulus > 0 ? "_gap" + std::to_string(c.gap_modulus) : "");
}

class PartitionedDifferentialTest
    : public ::testing::TestWithParam<PartitionCase> {
 protected:
  Dataset MakeData() const {
    const PartitionCase& c = GetParam();
    RandomWalkSpec spec;
    spec.seed = c.seed;
    spec.num_objects = c.num_objects;
    spec.num_ticks = c.num_ticks;
    spec.area = c.area;
    spec.step = c.area / 8.0;
    Dataset walk = GenerateRandomWalk(spec);
    if (c.gap_modulus <= 0) return walk;
    DatasetBuilder builder;
    for (const PointRecord& rec : walk.records()) {
      if (rec.t % c.gap_modulus == 1) continue;
      builder.Add(rec);
    }
    return builder.Build();
  }
  MiningParams Params() const {
    const PartitionCase& c = GetParam();
    return MiningParams{c.m, c.k, c.eps};
  }
};

TEST_P(PartitionedDifferentialTest, MatchesBatchOnEveryStore) {
  const Dataset data = MakeData();
  const MiningParams params = Params();
  const std::string tag =
      CaseName(::testing::TestParamInfo<PartitionCase>(GetParam(), 0));
  for (StoreKind kind : {StoreKind::kMemory, StoreKind::kFile,
                         StoreKind::kBPlusTree, StoreKind::kLsm}) {
    ExpectPartitionedMatchesBatch(data, params, kind, tag, {1, 2, 3, 7});
  }
}

TEST_P(PartitionedDifferentialTest, MatchesGoldFullyConnected) {
  // Anchor to the brute-force oracle as well, with a prime shard count
  // chosen to be coprime with every k in the sweep (prime-vs-k seams).
  const Dataset data = MakeData();
  const MiningParams params = Params();
  auto store = MakeMemStore(data);
  K2HopOptions options;
  options.num_shards = 5;
  options.num_threads = 2;
  auto mined = MineK2Hop(store.get(), params, options);
  ASSERT_TRUE(mined.ok());
  EXPECT_SAME_CONVOYS(mined.value(), GoldFullyConnectedConvoys(data, params));
}

// Dense walks: chance convoys, splits, merges — the adversarial input.
INSTANTIATE_TEST_SUITE_P(
    DenseRandomWalks, PartitionedDifferentialTest,
    ::testing::Values(
        PartitionCase{1, 8, 14, 40.0, 2, 3, 8.0, 0},
        PartitionCase{2, 8, 14, 40.0, 2, 4, 8.0, 0},
        PartitionCase{3, 9, 12, 50.0, 3, 3, 10.0, 0},
        PartitionCase{4, 10, 16, 60.0, 2, 5, 9.0, 0},
        PartitionCase{5, 10, 10, 45.0, 3, 4, 12.0, 0},
        PartitionCase{6, 7, 20, 35.0, 2, 6, 7.0, 0},
        PartitionCase{7, 12, 12, 70.0, 2, 4, 10.0, 0},
        PartitionCase{8, 12, 15, 55.0, 3, 5, 11.0, 0}),
    CaseName);

// Long streams and wide hop-windows: many shards per convoy lifetime, and
// tick counts that are not multiples of ⌊k/2⌋ (ragged final windows).
INSTANTIATE_TEST_SUITE_P(
    RaggedLengthsAndWideWindows, PartitionedDifferentialTest,
    ::testing::Values(
        PartitionCase{31, 8, 23, 45.0, 2, 10, 8.0, 0},
        PartitionCase{32, 8, 29, 45.0, 2, 12, 8.0, 0},
        PartitionCase{33, 10, 25, 55.0, 3, 9, 10.0, 0},
        PartitionCase{34, 9, 40, 50.0, 2, 7, 9.0, 0},
        PartitionCase{35, 10, 27, 50.0, 2, 11, 9.0, 0}),
    CaseName);

// Gapped tick streams: whole ticks missing from the data, so some shards
// contain partial or no benchmark data.
INSTANTIATE_TEST_SUITE_P(
    GappedStreams, PartitionedDifferentialTest,
    ::testing::Values(
        PartitionCase{41, 8, 20, 40.0, 2, 4, 8.0, 5},
        PartitionCase{42, 10, 24, 50.0, 2, 5, 9.0, 7},
        PartitionCase{43, 9, 26, 45.0, 3, 6, 10.0, 4},
        PartitionCase{44, 8, 30, 40.0, 2, 9, 8.0, 6}),
    CaseName);

// ---------------------------------------------------------------------------
// Brinkhoff workload (network-based movement, objects appearing over time)
// ---------------------------------------------------------------------------

TEST(PartitionedBrinkhoffTest, MatchesBatchOnMemoryAndLsm) {
  BrinkhoffParams params;
  params.grid.nx = 6;
  params.grid.ny = 6;
  params.grid.spacing = 500.0;
  params.max_time = 120;
  params.obj_begin = 60;
  params.obj_time = 1;
  params.seed = 9;
  const Dataset data = GenerateBrinkhoff(params);
  ASSERT_GT(data.num_points(), 0u);
  const MiningParams mining{3, 10, 60.0};
  for (StoreKind kind : {StoreKind::kMemory, StoreKind::kLsm}) {
    ExpectPartitionedMatchesBatch(data, mining, kind, "brinkhoff",
                                  {2, 3, 7});
  }
}

}  // namespace
}  // namespace k2
