// Validation (Algorithm 4 / HWMT*): binary subdivision order, FC acceptance,
// recursive splitting, and the one-pass DCVal bug the paper corrects.
#include <algorithm>

#include <gtest/gtest.h>

#include "baselines/gold.h"
#include "baselines/validation.h"
#include "cluster/store_clustering.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::C;
using ::k2::testing::MakeMemStore;
using ::k2::testing::MakeTracks;
using ::k2::testing::Str;

// ---------------------------------------------------------------------------
// BinarySubdivisionOrder
// ---------------------------------------------------------------------------

TEST(BinarySubdivisionOrderTest, CoversEveryTickExactlyOnce) {
  for (Timestamp len : {1, 2, 3, 4, 5, 8, 13, 16, 31}) {
    const TimeRange range{10, 10 + len - 1};
    std::vector<Timestamp> order = BinarySubdivisionOrder(range);
    ASSERT_EQ(order.size(), static_cast<size_t>(len)) << "len=" << len;
    std::vector<Timestamp> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (Timestamp i = 0; i < len; ++i) ASSERT_EQ(sorted[i], 10 + i);
  }
}

TEST(BinarySubdivisionOrderTest, EndpointsComeFirstThenMidpoint) {
  const std::vector<Timestamp> order = BinarySubdivisionOrder({0, 8});
  ASSERT_GE(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 8);
  EXPECT_EQ(order[2], 4);  // root of the mining tree = the middle
}

TEST(BinarySubdivisionOrderTest, EmptyAndSingle) {
  EXPECT_TRUE(BinarySubdivisionOrder({1, 0}).empty());
  EXPECT_EQ(BinarySubdivisionOrder({5, 5}), (std::vector<Timestamp>{5}));
}

TEST(BinarySubdivisionOrderTest, MatchesPaperFigure4LevelOrder) {
  // Window [0,8] (Table 2): probe order of interior ticks is 4, then 2, 6,
  // then 1, 3, 5, 7 — level by level.
  const std::vector<Timestamp> order = BinarySubdivisionOrder({0, 8});
  const std::vector<Timestamp> expected{0, 8, 4, 2, 6, 1, 3, 5, 7};
  EXPECT_EQ(order, expected);
}

// ---------------------------------------------------------------------------
// ValidateFullyConnected
// ---------------------------------------------------------------------------

TEST(ValidationTest, AcceptsFullyConnectedCandidate) {
  auto store = MakeMemStore(MakeTracks({{0, 0, 0, 0}, {0.5, 0.5, 0.5, 0.5}}));
  ValidationStats stats;
  auto out = ValidateFullyConnected(store.get(), {C({0, 1}, 0, 3)},
                                    {2, 2, 1.0}, true, &stats);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 0, 3));
  EXPECT_EQ(stats.fc_accepted, 1u);
  EXPECT_EQ(stats.split_rounds, 0u);
}

TEST(ValidationTest, DropsTooSmallOrTooShortCandidates) {
  auto store = MakeMemStore(MakeTracks({{0, 0}, {0.5, 0.5}}));
  auto out = ValidateFullyConnected(store.get(), {C({0}, 0, 1), C({0, 1}, 0, 0)},
                                    {2, 2, 1.0}, true);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

// The paper's Sec. 4.6 scenario: candidate (abcd,[0,5]) where object d is
// connected to abc only through object e at tick 2; e is not part of the
// candidate, so the true FC convoy is (abc,[0,5]).
class BridgeScenario : public ::testing::Test {
 protected:
  std::unique_ptr<MemoryStore> MakeStore() {
    // Objects: a=0,b=1,c=2 chained at x=0,0.9,1.8 all ticks.
    // d=3 at x=3.6 (within eps of nothing but e at tick 2; at other ticks
    // x=2.7 -> chained to c directly).
    // e=4 sits at x=2.7 at tick 2 bridging c(1.8) and d(3.6); far otherwise.
    std::vector<std::vector<double>> tracks = {
        {0, 0, 0, 0, 0, 0},
        {0.9, 0.9, 0.9, 0.9, 0.9, 0.9},
        {1.8, 1.8, 1.8, 1.8, 1.8, 1.8},
        {2.7, 2.7, 3.6, 2.7, 2.7, 2.7},   // d drifts out at tick 2
        {50, 50, 2.7, 50, 50, 50},        // e bridges at tick 2 only
    };
    return MakeMemStore(MakeTracks(tracks));
  }
  const MiningParams params_{2, 4, 1.0};
};

TEST_F(BridgeScenario, RecursiveValidationSplitsToTrueFcConvoys) {
  auto store = MakeStore();
  ValidationStats stats;
  auto out = ValidateFullyConnected(store.get(), {C({0, 1, 2, 3}, 0, 5)},
                                    params_, true, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(stats.split_rounds, 0u);
  // The restriction to {a,b,c,d} is NOT a convoy over [0,5] (at tick 2, d is
  // 1.8 from c with no bridge inside the candidate set). Recursive
  // validation finds the pieces; gold confirms them.
  const auto gold = GoldFullyConnectedConvoys(store->dataset(), params_);
  EXPECT_SAME_CONVOYS(out.value(), gold);
  // And the headline piece is (abc + d rejoining): ({0,1,2,3},[3,5]) is too
  // short (k=4), so ({0,1,2},[0,5]) must be in the output.
  bool found_abc = false;
  for (const Convoy& v : out.value()) {
    if (v == C({0, 1, 2}, 0, 5)) found_abc = true;
  }
  EXPECT_TRUE(found_abc);
}

TEST_F(BridgeScenario, OnePassDcvalEmitsUnvalidatedSplits) {
  // One-pass DCVal (VCoDA) emits split pieces without re-validating them.
  // Construction: a and c are never within eps of each other, but are
  // bridged by b during ticks 0-1 and by d during ticks 2-5. The restricted
  // sweep of candidate {a,b,c,d} therefore emits the piece ({a,c},[0,5]) —
  // which is NOT fully connected. Recursive validation re-validates and
  // drops it; one-pass DCVal leaks it.
  std::vector<std::vector<double>> tracks = {
      {0, 0, 0, 0, 0, 0},                  // a
      {0.9, 0.9, 52, 53, 54, 55},          // b: bridge at ticks 0-1 only
      {1.8, 1.8, 1.8, 1.8, 1.8, 1.8},      // c
      {70, 71, 0.9, 0.9, 0.9, 0.9},        // d: bridge at ticks 2-5 only
  };
  auto store = MakeMemStore(MakeTracks(tracks));
  const MiningParams params{2, 3, 1.0};
  const Convoy candidate = C({0, 1, 2, 3}, 0, 5);

  auto recursive =
      ValidateFullyConnected(store.get(), {candidate}, params, true);
  auto one_pass =
      ValidateFullyConnected(store.get(), {candidate}, params, false);
  ASSERT_TRUE(recursive.ok() && one_pass.ok());
  const auto gold = GoldFullyConnectedConvoys(store->dataset(), params);
  // Gold restricted to sub-convoys of the candidate:
  std::vector<Convoy> gold_in_candidate;
  for (const Convoy& v : gold) {
    if (v.IsSubConvoyOf(candidate)) gold_in_candidate.push_back(v);
  }
  EXPECT_SAME_CONVOYS(recursive.value(), gold_in_candidate);

  // The one-pass result must contain at least one convoy that is NOT fully
  // connected (the documented bug).
  bool emitted_non_fc = false;
  for (const Convoy& v : one_pass.value()) {
    bool in_gold = false;
    for (const Convoy& g : gold) {
      if (v == g) in_gold = true;
    }
    if (!in_gold) emitted_non_fc = true;
  }
  EXPECT_TRUE(emitted_non_fc);
}

TEST(ValidationTest, DuplicateCandidatesProcessedOnce) {
  auto store = MakeMemStore(MakeTracks({{0, 0, 0}, {0.5, 0.5, 0.5}}));
  ValidationStats stats;
  auto out = ValidateFullyConnected(
      store.get(), {C({0, 1}, 0, 2), C({0, 1}, 0, 2)}, {2, 2, 1.0}, true,
      &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 1u);
  EXPECT_EQ(stats.fc_accepted, 1u);
}

TEST(ValidationTest, DistinctCandidatesWithEqualHashesAreBothChecked) {
  // XOR-ing the object-set hash with the packed lifespan maps these two
  // distinct convoys to one 64-bit value; deduplication must compare the
  // convoys themselves.
  const std::vector<Convoy> candidates = {C({1, 2}, 568245412, 1420895620),
                                          C({1, 9}, 0, 1023)};
  size_t checked = 0;
  auto out = ValidateInRounds(
      candidates, {2, 2, 1.0}, /*recursive=*/true, nullptr,
      [&](const std::vector<Convoy>& round,
          std::vector<FcCheck>* checks) -> Status {
        checked += round.size();
        for (FcCheck& check : *checks) check.fully_connected = true;
        return Status::OK();
      });
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(checked, 2u);
  EXPECT_EQ(out.value(), (std::vector<Convoy>{candidates[1], candidates[0]}));
}

TEST(ValidationTest, ProvenTicksNeverChangeTheAnswer) {
  // Candidates: clusters of one tick of a dense random walk, given random
  // lifespans around that tick, so some are fully connected and others
  // split and reach the fallback sweep. Each candidate's proven ranges come
  // from direct ReCluster calls that returned exactly {O}, on a random half
  // of its ticks. Every tick of the lifespan is probed, so each proven tick
  // saves exactly one re-clustering.
  Rng rng(20261017);
  size_t fully_connected = 0, split_with_proofs = 0;
  for (uint64_t seed : {5u, 17u, 31u}) {
    RandomWalkSpec spec;
    spec.num_objects = 30;
    spec.num_ticks = 40;
    spec.area = 24.0;
    spec.step = 3.0;
    spec.seed = seed;
    auto store = MakeMemStore(GenerateRandomWalk(spec));
    const MiningParams params{3, 4, 6.0};
    SnapshotScratch scratch;
    for (Timestamp t0 = 0; t0 < spec.num_ticks; t0 += 3) {
      auto clusters = ClusterSnapshot(store.get(), t0, params);
      ASSERT_TRUE(clusters.ok());
      for (const ObjectSet& objects : clusters.value()) {
        const Convoy candidate(
            objects, std::max(0, t0 - static_cast<Timestamp>(rng.NextInt(8))),
            std::min(spec.num_ticks - 1,
                     t0 + static_cast<Timestamp>(rng.NextInt(8))));
        std::vector<TimeRange> proven;
        size_t covered = 0;
        for (Timestamp t = candidate.start; t <= candidate.end; ++t) {
          if (rng.NextInt(2) == 0) continue;
          auto cs = ReCluster(store.get(), t, objects, params);
          ASSERT_TRUE(cs.ok());
          if (cs.value() != std::vector<ObjectSet>{objects}) continue;
          if (!proven.empty() && proven.back().end + 1 == t) {
            proven.back().end = t;
          } else {
            proven.push_back({t, t});
          }
          ++covered;
        }
        auto plain =
            CheckFullyConnected(store.get(), candidate, params, &scratch);
        auto with = CheckFullyConnected(store.get(), candidate, params,
                                        &scratch, proven);
        ASSERT_TRUE(plain.ok() && with.ok());
        SCOPED_TRACE(Str({candidate}));
        EXPECT_EQ(with.value().fully_connected, plain.value().fully_connected);
        EXPECT_EQ(with.value().pieces, plain.value().pieces);
        EXPECT_EQ(plain.value().reclusterings,
                  static_cast<size_t>(candidate.length()));
        EXPECT_EQ(plain.value().proven_ticks, 0u);
        EXPECT_EQ(with.value().proven_ticks, covered);
        EXPECT_EQ(with.value().reclusterings,
                  plain.value().reclusterings - covered);
        if (plain.value().fully_connected) {
          ++fully_connected;
        } else if (covered > 0) {
          ++split_with_proofs;
        }
      }
    }
  }
  EXPECT_GT(fully_connected, 0u) << "weak test input";
  EXPECT_GT(split_with_proofs, 0u) << "weak test input";
}

}  // namespace
}  // namespace k2
