// Ground-truth recovery: datasets with *planted* convoys (known object sets
// and lifespans) must be recovered exactly by k/2-hop — object set, start
// and end tick — across a sweep of group shapes, parameters and storage
// engines. Complements the random-walk differential tests: here the right
// answer is known by construction, not via an oracle.
#include <gtest/gtest.h>

#include "core/k2hop.h"
#include "core/vcoda.h"
#include "gen/synthetic.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeMemStore;

struct PlantedCase {
  uint64_t seed;
  int group_size;
  Timestamp start;
  Timestamp end;
  int num_ticks;
  int noise;
  int m;
  int k;
};

std::string CaseName(const ::testing::TestParamInfo<PlantedCase>& info) {
  const PlantedCase& c = info.param;
  return "seed" + std::to_string(c.seed) + "_g" + std::to_string(c.group_size) +
         "_s" + std::to_string(c.start) + "_e" + std::to_string(c.end) + "_k" +
         std::to_string(c.k);
}

class PlantedTruthTest : public ::testing::TestWithParam<PlantedCase> {
 protected:
  Dataset MakeData() const {
    const PlantedCase& c = GetParam();
    PlantedConvoySpec spec;
    spec.seed = c.seed;
    spec.num_noise_objects = c.noise;
    spec.num_ticks = c.num_ticks;
    spec.member_spacing = 1.0;
    spec.groups = {PlantedGroup{c.group_size, c.start, c.end, 8.0}};
    return GeneratePlantedConvoys(spec);
  }
  Convoy ExpectedConvoy() const {
    const PlantedCase& c = GetParam();
    std::vector<ObjectId> ids;
    for (int i = 0; i < c.group_size; ++i) ids.push_back(i);
    return Convoy(ObjectSet::FromSorted(std::move(ids)), c.start, c.end);
  }
  MiningParams Params() const {
    return MiningParams{GetParam().m, GetParam().k, 2.0};
  }
};

TEST_P(PlantedTruthTest, K2HopRecoversThePlantedConvoy) {
  auto store = MakeMemStore(MakeData());
  auto result = MineK2Hop(store.get(), Params());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Convoy expected = ExpectedConvoy();
  bool found = false;
  for (const Convoy& v : result.value()) {
    if (v == expected) found = true;
  }
  EXPECT_TRUE(found) << "expected " << expected.DebugString() << " in\n"
                     << ConvoysDebugString(result.value());
}

TEST_P(PlantedTruthTest, VcodaStarAgreesWithK2Hop) {
  auto store = MakeMemStore(MakeData());
  auto k2 = MineK2Hop(store.get(), Params());
  auto vc = MineVcoda(store.get(), Params(), true);
  ASSERT_TRUE(k2.ok() && vc.ok());
  EXPECT_SAME_CONVOYS(k2.value(), vc.value());
}

TEST_P(PlantedTruthTest, NothingFoundWhenKExceedsPlantedLength) {
  const PlantedCase& c = GetParam();
  auto store = MakeMemStore(MakeData());
  MiningParams params = Params();
  params.k = static_cast<int>(c.end - c.start + 2);  // one tick too long
  auto result = MineK2Hop(store.get(), params);
  ASSERT_TRUE(result.ok());
  for (const Convoy& v : result.value()) {
    // Noise may coincidentally convoy, but never the planted ids for longer
    // than planted.
    EXPECT_FALSE(v.objects.Contains(0) && v.length() > c.end - c.start + 1)
        << v.DebugString();
  }
}

TEST_P(PlantedTruthTest, RaisingMBeyondGroupSizeHidesIt) {
  const PlantedCase& c = GetParam();
  auto store = MakeMemStore(MakeData());
  MiningParams params = Params();
  params.m = c.group_size + 1;
  auto result = MineK2Hop(store.get(), params);
  ASSERT_TRUE(result.ok());
  const Convoy expected = ExpectedConvoy();
  for (const Convoy& v : result.value()) {
    EXPECT_NE(v, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlantedTruthTest,
    ::testing::Values(
        // Lifespans aligned / misaligned with the benchmark grid.
        PlantedCase{1, 3, 0, 19, 40, 10, 3, 10},
        PlantedCase{2, 3, 1, 20, 40, 10, 3, 10},
        PlantedCase{3, 3, 7, 33, 40, 10, 3, 12},
        PlantedCase{4, 3, 13, 39, 40, 10, 3, 9},
        // Convoy touching the dataset edges.
        PlantedCase{5, 4, 0, 29, 30, 8, 3, 15},
        PlantedCase{6, 4, 10, 29, 30, 8, 3, 11},
        PlantedCase{7, 4, 0, 15, 30, 8, 4, 8},
        // k equal to the planted length (tightest fit).
        PlantedCase{8, 3, 5, 24, 40, 12, 3, 20},
        PlantedCase{9, 5, 3, 30, 40, 12, 3, 28},
        // Small k => dense benchmark grid.
        PlantedCase{10, 3, 6, 21, 36, 10, 2, 2},
        PlantedCase{11, 3, 6, 21, 36, 10, 2, 3},
        // Bigger groups with m below group size.
        PlantedCase{12, 6, 4, 27, 36, 10, 3, 16},
        PlantedCase{13, 6, 4, 27, 36, 10, 5, 16}),
    CaseName);

}  // namespace
}  // namespace k2
