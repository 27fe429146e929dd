// Validation (Algorithm 4): HWMT's binary subdivision order, FC acceptance,
// recursive splitting, the one-pass DCVal bug the paper corrects, and the
// tick-major round check against the per-candidate binary-order prober it
// replaced.
#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "baselines/gold.h"
#include "baselines/sweep.h"
#include "cluster/store_clustering.h"
#include "common/rng.h"
#include "core/k2hop.h"
#include "core/proof_book.h"
#include "core/snapshot_slots.h"
#include "core/validation.h"
#include "gen/synthetic.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::C;
using ::k2::testing::FetchCountingStore;
using ::k2::testing::MakeMemStore;
using ::k2::testing::MakeTracks;
using ::k2::testing::RecordingClusterer;
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

// One candidate, checked alone on one slot with `book`'s proofs.
FcCheck CheckOne(Store* store, const Convoy& candidate,
                 const MiningParams& params, const ProofBook& book) {
  SnapshotSlots slots(store, 1);
  std::vector<FcCheck> checks(1);
  EXPECT_TRUE(CheckRound(&slots, {candidate}, params, book, &checks).ok());
  return checks[0];
}

// A random walk dense enough for chance convoys that split.
Dataset DenseWalk(uint64_t seed) {
  RandomWalkSpec spec;
  spec.num_objects = 30;
  spec.num_ticks = 40;
  spec.area = 24.0;
  spec.step = 3.0;
  spec.seed = seed;
  return GenerateRandomWalk(spec);
}

// Proofs for a random half of `candidate`'s ticks, from direct ReCluster
// calls that returned exactly {O}. Returns how many ticks they cover.
size_t AddRandomProofs(Store* store, const Convoy& candidate,
                       const MiningParams& params, Rng* rng, ProofBook* book) {
  size_t covered = 0;
  for (Timestamp t = candidate.start; t <= candidate.end; ++t) {
    if (rng->NextInt(2) == 0) continue;
    auto cs = ReCluster(store, t, candidate.objects, params);
    EXPECT_TRUE(cs.ok());
    if (cs.value() != std::vector<ObjectSet>{candidate.objects}) continue;
    book->Add(candidate.objects, {t, t});
    ++covered;
  }
  return covered;
}

TEST(ValidationTest, ProvenTicksNeverChangeTheAnswer) {
  // Candidates: clusters of one tick of a dense random walk, given random
  // lifespans around that tick, so some are fully connected and others
  // split and are swept. Each candidate's proofs come from direct ReCluster
  // calls that returned exactly {O}, on a random half of its ticks. Every
  // tick of the lifespan is probed, so each proven tick saves exactly one
  // re-clustering.
  Rng rng(20261017);
  size_t fully_connected = 0, split_with_proofs = 0;
  for (uint64_t seed : {5u, 17u, 31u}) {
    auto store = MakeMemStore(DenseWalk(seed));
    const MiningParams params{3, 4, 6.0};
    const Timestamp last = store->time_range().end;
    for (Timestamp t0 = 0; t0 <= last; t0 += 3) {
      auto clusters = ClusterSnapshot(store.get(), t0, params);
      ASSERT_TRUE(clusters.ok());
      for (const ObjectSet& objects : clusters.value()) {
        const Convoy candidate(
            objects, std::max(0, t0 - static_cast<Timestamp>(rng.NextInt(8))),
            std::min(last, t0 + static_cast<Timestamp>(rng.NextInt(8))));
        ProofBook book;
        const size_t covered =
            AddRandomProofs(store.get(), candidate, params, &rng, &book);
        const FcCheck plain =
            CheckOne(store.get(), candidate, params, ProofBook());
        const FcCheck with = CheckOne(store.get(), candidate, params, book);
        SCOPED_TRACE(Str({candidate}));
        EXPECT_EQ(with.fully_connected, plain.fully_connected);
        EXPECT_EQ(with.pieces, plain.pieces);
        EXPECT_EQ(plain.reclusterings, static_cast<size_t>(candidate.length()));
        EXPECT_EQ(plain.proven_ticks, 0u);
        EXPECT_EQ(with.proven_ticks, covered);
        EXPECT_EQ(with.reclusterings, plain.reclusterings - covered);
        if (plain.fully_connected) {
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

// ---------------------------------------------------------------------------
// The tick-major round check against the per-candidate reference
// ---------------------------------------------------------------------------

// The per-candidate checker that validation used before it went tick-major,
// kept as the reference: it probes the candidate's unproven ticks in
// binary-subdivision order and stops at the first that is not exactly {O};
// a failed candidate is then swept over its whole lifespan, re-clustering
// every tick nothing has answered yet. Its probes go through `memo`, one
// per round, so a (t, O) that several candidates of a round ask is
// re-clustered once, as the round check does.
using RoundMemo = std::map<std::pair<Timestamp, ObjectSet>,
                           std::vector<ObjectSet>>;

Result<FcCheck> ReferenceCheck(Store* store, const Convoy& candidate,
                               const MiningParams& params,
                               std::span<const TimeRange> proven,
                               RoundMemo* memo) {
  const TimeRange life = candidate.lifespan();
  std::vector<char> whole_at(static_cast<size_t>(life.length()), 0);
  FcCheck check;
  for (const TimeRange& r : proven) {
    for (Timestamp t = std::max(r.start, life.start);
         t <= std::min(r.end, life.end); ++t) {
      whole_at[t - life.start] = 1;
      ++check.proven_ticks;
    }
  }
  auto probe = [&](Timestamp t) -> Result<std::vector<ObjectSet>> {
    auto [it, inserted] = memo->try_emplace({t, candidate.objects});
    if (inserted) {
      ++check.reclusterings;
      K2_ASSIGN_OR_RETURN(it->second,
                          ReCluster(store, t, candidate.objects, params));
    }
    return it->second;
  };
  Timestamp failed_at = kInvalidTimestamp;
  std::vector<ObjectSet> failed;
  check.fully_connected = true;
  for (Timestamp t : BinarySubdivisionOrder(life)) {
    if (whole_at[t - life.start]) continue;
    K2_ASSIGN_OR_RETURN(std::vector<ObjectSet> cs, probe(t));
    if (cs != std::vector<ObjectSet>{candidate.objects}) {
      check.fully_connected = false;
      failed_at = t;
      failed = std::move(cs);
      break;
    }
    whole_at[t - life.start] = 1;
  }
  if (check.fully_connected) return check;
  SweepOptions options;
  options.min_length = params.k;
  K2_ASSIGN_OR_RETURN(
      check.pieces,
      MaximalConvoySweep(
          [&](Timestamp t, std::vector<ObjectSet>* out) -> Status {
            if (whole_at[t - life.start]) {
              *out = {candidate.objects};
            } else if (t == failed_at) {
              *out = failed;
            } else {
              K2_ASSIGN_OR_RETURN(*out, probe(t));
            }
            return Status::OK();
          },
          life, params.m, options));
  return check;
}

Result<std::vector<Convoy>> ReferenceValidate(Store* store,
                                              std::vector<Convoy> candidates,
                                              const MiningParams& params,
                                              const ProofBook& book,
                                              ValidationStats* stats) {
  return ValidateInRounds(
      std::move(candidates), params, /*recursive=*/true, stats,
      [&](const std::vector<Convoy>& round,
          std::vector<FcCheck>* checks) -> Status {
        RoundMemo memo;
        for (size_t i = 0; i < round.size(); ++i) {
          K2_ASSIGN_OR_RETURN((*checks)[i],
                              ReferenceCheck(store, round[i], params,
                                             book.Find(round[i].objects),
                                             &memo));
        }
        return Status::OK();
      });
}

// Candidates of every kind: benchmark-like clusters with random lifespans,
// some repeated with another lifespan (a round then asks their (t, O)
// twice), and every cluster of a tick's restriction to a random superset.
std::vector<Convoy> RandomCandidates(Store* store, const MiningParams& params,
                                     Rng* rng) {
  std::vector<Convoy> candidates;
  const Timestamp last = store->time_range().end;
  for (Timestamp t0 = 0; t0 <= last; t0 += 4) {
    auto clusters = ClusterSnapshot(store, t0, params);
    EXPECT_TRUE(clusters.ok());
    for (const ObjectSet& objects : clusters.value()) {
      for (int copy = 0; copy < 1 + static_cast<int>(rng->NextInt(2));
           ++copy) {
        candidates.emplace_back(
            objects,
            std::max(0, t0 - static_cast<Timestamp>(rng->NextInt(10))),
            std::min(last, t0 + static_cast<Timestamp>(rng->NextInt(10))));
      }
    }
  }
  return candidates;
}

void ExpectSameValidation(const ValidationStats& got,
                          const ValidationStats& want) {
  EXPECT_EQ(got.candidates_in, want.candidates_in);
  EXPECT_EQ(got.fc_accepted, want.fc_accepted);
  EXPECT_EQ(got.split_rounds, want.split_rounds);
  EXPECT_EQ(got.reclusterings, want.reclusterings);
  EXPECT_EQ(got.proven_ticks, want.proven_ticks);
  EXPECT_EQ(got.probed_points, want.probed_points);
}

TEST(ValidationOracleTest, MatchesTheBinaryOrderProberIdenticalForEveryThreadCount) {
  // On random stores, with and without proofs, the tick-major round check
  // returns the reference's convoys and makes its re-clusterings, less the
  // repeats within a round; and it does so on one slot or several.
  Rng rng(20261019);
  size_t splits = 0, repeats = 0;
  for (uint64_t seed : {3u, 8u, 21u, 34u}) {
    auto store = MakeMemStore(DenseWalk(seed));
    const MiningParams params{3, 5, 6.0};
    const std::vector<Convoy> candidates =
        RandomCandidates(store.get(), params, &rng);
    for (bool with_proofs : {false, true}) {
      ProofBook book;
      if (with_proofs) {
        for (const Convoy& c : candidates) {
          AddRandomProofs(store.get(), c, params, &rng, &book);
        }
      }
      ValidationStats want;
      auto reference =
          ReferenceValidate(store.get(), candidates, params, book, &want);
      ASSERT_TRUE(reference.ok());
      splits += want.split_rounds;
      // The same rounds without the memo: what each candidate alone costs.
      ValidationStats alone;
      ASSERT_TRUE(ValidateInRounds(
                      candidates, params, true, &alone,
                      [&](const std::vector<Convoy>& round,
                          std::vector<FcCheck>* checks) -> Status {
                        for (size_t i = 0; i < round.size(); ++i) {
                          RoundMemo memo;
                          K2_ASSIGN_OR_RETURN(
                              (*checks)[i],
                              ReferenceCheck(store.get(), round[i], params,
                                             book.Find(round[i].objects),
                                             &memo));
                        }
                        return Status::OK();
                      })
                      .ok());
      repeats += alone.reclusterings - want.reclusterings;
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " proofs=" + std::to_string(with_proofs) +
                     " threads=" + std::to_string(threads));
        SnapshotSlots slots(store.get(), threads);
        ValidationStats got;
        auto checked = slots.Validate(params, candidates, book, &got);
        ASSERT_TRUE(checked.ok()) << checked.status().ToString();
        EXPECT_EQ(checked.value(), reference.value());
        ExpectSameValidation(got, want);
      }
    }
  }
  EXPECT_GT(splits, 0u) << "weak test input: nothing split";
  EXPECT_GT(repeats, 0u) << "weak test input: no (t, O) asked twice";
}

TEST_F(BridgeScenario, RoundCheckMatchesTheBinaryOrderProber) {
  // Candidate {a,b,c,d} splits at tick 2, and its pieces are checked in
  // the next round; the sub-candidate {a,b,c} of the same round asks the
  // same ticks for other objects.
  auto store = MakeStore();
  const std::vector<Convoy> candidates = {C({0, 1, 2, 3}, 0, 5),
                                          C({0, 1, 2}, 0, 5),
                                          C({0, 1, 2, 3}, 1, 5)};
  for (bool with_proofs : {false, true}) {
    ProofBook book;
    if (with_proofs) book.Add(ObjectSet::Of({0, 1, 2, 3}), {3, 5});
    ValidationStats want, got;
    auto reference =
        ReferenceValidate(store.get(), candidates, params_, book, &want);
    SnapshotSlots slots(store.get(), 1);
    auto checked = slots.Validate(params_, candidates, book, &got);
    ASSERT_TRUE(reference.ok() && checked.ok());
    EXPECT_GT(want.split_rounds, 0u);
    EXPECT_EQ(checked.value(), reference.value());
    ExpectSameValidation(got, want);
  }
}

TEST(ValidationRoundTest, OneFetchPerTickForTheUnionOfTheUnprovenSets) {
  // A round reads each tick that some candidate needs with one GetPoints
  // call for the union of the distinct unproven sets there, and
  // re-clusters each of those sets once.
  Rng rng(7);
  size_t shared_ticks = 0;
  for (uint64_t seed : {2u, 13u}) {
    FetchCountingStore store(DenseWalk(seed));
    RecordingClusterer clusterer;
    MiningParams params{3, 5, 6.0};
    params.clusterer = &clusterer;
    const std::vector<Convoy> round = [&] {
      std::vector<Convoy> all = RandomCandidates(&store, params, &rng);
      std::set<Convoy> distinct(all.begin(), all.end());
      return std::vector<Convoy>(distinct.begin(), distinct.end());
    }();
    ProofBook book;
    for (const Convoy& c : round) {
      if (rng.NextInt(3) == 0) AddRandomProofs(&store, c, params, &rng, &book);
    }
    clusterer.calls.clear();
    store.fetches.clear();
    SnapshotSlots slots(&store, 1);
    std::vector<FcCheck> checks(round.size());
    ASSERT_TRUE(CheckRound(&slots, round, params, book, &checks).ok());

    // The distinct unproven (t, O) asks, by tick.
    std::map<Timestamp, std::set<ObjectSet>> want;
    for (const Convoy& c : round) {
      const std::span<const TimeRange> proven = book.Find(c.objects);
      for (Timestamp t = c.start; t <= c.end; ++t) {
        bool is_proven = false;
        for (const TimeRange& r : proven) is_proven |= r.Contains(t);
        if (!is_proven) want[t].insert(c.objects);
      }
    }
    std::vector<std::pair<Timestamp, size_t>> want_fetches;
    std::map<Timestamp, std::set<ObjectSet>> got;
    for (const auto& [t, sets] : want) {
      std::set<ObjectId> keys;
      for (const ObjectSet& s : sets) keys.insert(s.begin(), s.end());
      want_fetches.emplace_back(t, keys.size());
      if (sets.size() > 1) ++shared_ticks;
    }
    for (const auto& [t, set] : clusterer.calls) {
      EXPECT_TRUE(got[t].insert(set).second)
          << set.DebugString() << " re-clustered twice at tick " << t;
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(store.fetches, want_fetches);
    size_t charged = 0;
    for (const FcCheck& check : checks) charged += check.reclusterings;
    EXPECT_EQ(charged, clusterer.calls.size());
  }
  EXPECT_GT(shared_ticks, 0u) << "weak test input";
}

}  // namespace
}  // namespace k2
