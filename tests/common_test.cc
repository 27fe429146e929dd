// Unit tests for src/common: ObjectSet algebra, Convoy/maximality, Status /
// Result plumbing, RNG determinism, timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/convoy.h"
#include "common/object_set.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/types.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::C;

// ---------------------------------------------------------------------------
// ObjectSet
// ---------------------------------------------------------------------------

TEST(ObjectSetTest, ConstructorSortsAndDedupes) {
  const ObjectSet s({5, 1, 3, 1, 5});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ids(), (std::vector<ObjectId>{1, 3, 5}));
}

TEST(ObjectSetTest, OfLiteral) {
  EXPECT_EQ(ObjectSet::Of({3, 1, 2}), ObjectSet({1, 2, 3}));
}

TEST(ObjectSetTest, EmptySet) {
  const ObjectSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.Contains(0));
  EXPECT_TRUE(s.IsSubsetOf(ObjectSet::Of({1, 2})));
}

TEST(ObjectSetTest, Contains) {
  const ObjectSet s({2, 4, 6});
  EXPECT_TRUE(s.Contains(2));
  EXPECT_TRUE(s.Contains(6));
  EXPECT_FALSE(s.Contains(3));
  EXPECT_FALSE(s.Contains(7));
}

TEST(ObjectSetTest, SubsetRelation) {
  const ObjectSet a({1, 2});
  const ObjectSet b({1, 2, 3});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_FALSE(ObjectSet::Of({1, 4}).IsSubsetOf(b));
}

TEST(ObjectSetTest, Intersect) {
  const ObjectSet a({1, 2, 3, 4});
  const ObjectSet b({2, 4, 6});
  EXPECT_EQ(ObjectSet::Intersect(a, b), ObjectSet::Of({2, 4}));
  EXPECT_EQ(ObjectSet::Intersect(a, ObjectSet()), ObjectSet());
}

TEST(ObjectSetTest, OrderingIsLexicographic) {
  EXPECT_LT(ObjectSet::Of({1, 2}), ObjectSet::Of({1, 3}));
  EXPECT_LT(ObjectSet::Of({1}), ObjectSet::Of({1, 2}));
  EXPECT_FALSE(ObjectSet::Of({2}) < ObjectSet::Of({1, 5}));
}

TEST(ObjectSetTest, HashDiffersForDifferentSets) {
  EXPECT_NE(ObjectSet::Of({1, 2}).Hash(), ObjectSet::Of({1, 3}).Hash());
  EXPECT_EQ(ObjectSet::Of({1, 2}).Hash(), ObjectSet::Of({2, 1}).Hash());
}

TEST(ObjectSetTest, DebugString) {
  EXPECT_EQ(ObjectSet::Of({3, 1}).DebugString(), "{1, 3}");
  EXPECT_EQ(ObjectSet().DebugString(), "{}");
}

// Sorted duplicate-free draw of up to `max_size` values from [0, universe).
std::vector<ObjectId> RandomSet(std::mt19937* rng, size_t max_size,
                                uint32_t universe) {
  std::uniform_int_distribution<size_t> size_dist(0, max_size);
  std::uniform_int_distribution<uint32_t> value_dist(0, universe - 1);
  std::vector<ObjectId> v(size_dist(*rng));
  for (auto& x : v) x = value_dist(*rng);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

struct SetCase {
  std::vector<ObjectId> a, b;
  std::string tag;
};

std::vector<SetCase> AdversarialSetCases(std::mt19937* rng) {
  std::vector<SetCase> cases;
  // Overlap-heavy: both drawn from a universe barely larger than the sets.
  for (int it = 0; it < 120; ++it) {
    cases.push_back({RandomSet(rng, 64, 80), RandomSet(rng, 64, 80),
                     "overlap-heavy"});
  }
  // Sparse: large universe, occasional matches.
  for (int it = 0; it < 80; ++it) {
    cases.push_back(
        {RandomSet(rng, 128, 1 << 20), RandomSet(rng, 128, 1 << 20),
         "sparse"});
  }
  // Disjoint by construction: a in even, b in odd values.
  for (int it = 0; it < 40; ++it) {
    SetCase c{RandomSet(rng, 64, 1000), RandomSet(rng, 64, 1000), "disjoint"};
    for (auto& x : c.a) x *= 2;
    for (auto& x : c.b) x = x * 2 + 1;
    cases.push_back(std::move(c));
  }
  // Heavily skewed sizes, both directions.
  for (int it = 0; it < 40; ++it) {
    cases.push_back(
        {RandomSet(rng, 4, 1 << 16), RandomSet(rng, 2000, 1 << 16),
         "skewed-ab"});
    cases.push_back(
        {RandomSet(rng, 2000, 1 << 16), RandomSet(rng, 4, 1 << 16),
         "skewed-ba"});
  }
  // Subset by construction: a is a sample of b.
  for (int it = 0; it < 60; ++it) {
    SetCase c;
    c.b = RandomSet(rng, 200, 4000);
    std::uniform_int_distribution<int> keep(0, 2);
    for (ObjectId x : c.b) {
      if (keep(*rng) == 0) c.a.push_back(x);
    }
    c.tag = "subset";
    cases.push_back(std::move(c));
  }
  // Near-subset: one element of a perturbed off b.
  for (int it = 0; it < 60; ++it) {
    SetCase c;
    c.b = RandomSet(rng, 200, 4000);
    for (size_t j = 0; j < c.b.size(); j += 2) c.a.push_back(c.b[j]);
    if (!c.a.empty()) {
      std::uniform_int_distribution<size_t> pick(0, c.a.size() - 1);
      c.a[pick(*rng)] += 1;  // may or may not still be in b
      std::sort(c.a.begin(), c.a.end());
      c.a.erase(std::unique(c.a.begin(), c.a.end()), c.a.end());
    }
    c.tag = "near-subset";
    cases.push_back(std::move(c));
  }
  // Equal, empty-vs-nonempty, both-empty, single elements.
  const auto fixed = RandomSet(rng, 100, 1000);
  cases.push_back({fixed, fixed, "equal"});
  cases.push_back({{}, fixed, "empty-a"});
  cases.push_back({fixed, {}, "empty-b"});
  cases.push_back({{}, {}, "both-empty"});
  cases.push_back({{42}, fixed, "singleton"});
  // Every small size pairing, the sizes the miners' convoy sets have.
  for (size_t na = 0; na <= 20; ++na) {
    for (size_t nb : {size_t{0}, size_t{7}, size_t{8}, size_t{9}, size_t{16},
                      size_t{17}}) {
      cases.push_back({RandomSet(rng, na, 32), RandomSet(rng, nb, 32),
                       "small-sizes"});
    }
  }
  return cases;
}

// The oracle asks a hash set about each id, so it shares no merge with the
// std algorithms the implementation runs.
TEST(ObjectSetTest, AlgebraMatchesMembershipOracle) {
  std::mt19937 rng(789);
  for (const SetCase& c : AdversarialSetCases(&rng)) {
    const std::unordered_set<ObjectId> in_a(c.a.begin(), c.a.end());
    const std::unordered_set<ObjectId> in_b(c.b.begin(), c.b.end());
    std::vector<ObjectId> want;
    for (ObjectId x : c.a) {
      if (in_b.count(x) != 0) want.push_back(x);
    }
    const bool a_in_b = std::all_of(c.a.begin(), c.a.end(), [&](ObjectId x) {
      return in_b.count(x) != 0;
    });
    const bool b_in_a = std::all_of(c.b.begin(), c.b.end(), [&](ObjectId x) {
      return in_a.count(x) != 0;
    });
    const ObjectSet a = ObjectSet::FromSorted(c.a);
    const ObjectSet b = ObjectSet::FromSorted(c.b);
    EXPECT_EQ(ObjectSet::Intersect(a, b).ids(), want) << c.tag;
    EXPECT_EQ(ObjectSet::Intersect(b, a).ids(), want) << c.tag;
    EXPECT_EQ(a.IsSubsetOf(b), a_in_b) << c.tag;
    EXPECT_EQ(b.IsSubsetOf(a), b_in_a) << c.tag;
  }
}

// ---------------------------------------------------------------------------
// Convoy & maximality
// ---------------------------------------------------------------------------

TEST(ConvoyTest, Length) {
  EXPECT_EQ(C({1, 2}, 3, 7).length(), 5);
  EXPECT_EQ(C({1, 2}, 3, 3).length(), 1);
  EXPECT_EQ(Convoy().length(), 0);
}

TEST(ConvoyTest, SubConvoyRelation) {
  const Convoy big = C({1, 2, 3}, 0, 10);
  EXPECT_TRUE(C({1, 2}, 2, 5).IsSubConvoyOf(big));
  EXPECT_TRUE(big.IsSubConvoyOf(big));
  EXPECT_FALSE(big.IsStrictSubConvoyOf(big));
  EXPECT_TRUE(C({1, 2}, 2, 5).IsStrictSubConvoyOf(big));
  // Time-subset but object-superset: not a sub-convoy.
  EXPECT_FALSE(C({1, 2, 3, 4}, 2, 5).IsSubConvoyOf(big));
  // Object-subset but longer lifespan: not a sub-convoy.
  EXPECT_FALSE(C({1, 2}, 0, 11).IsSubConvoyOf(big));
}

TEST(MaximalConvoySetTest, DominatedInsertIsRejected) {
  MaximalConvoySet set;
  EXPECT_TRUE(set.Insert(C({1, 2, 3}, 0, 10)));
  EXPECT_FALSE(set.Insert(C({1, 2}, 2, 5)));
  EXPECT_FALSE(set.Insert(C({1, 2, 3}, 0, 10)));  // duplicate
  EXPECT_EQ(set.size(), 1u);
}

TEST(MaximalConvoySetTest, DominatingInsertEvictsMembers) {
  MaximalConvoySet set;
  EXPECT_TRUE(set.Insert(C({1, 2}, 2, 5)));
  EXPECT_TRUE(set.Insert(C({2, 3}, 1, 4)));
  EXPECT_TRUE(set.Insert(C({1, 2, 3}, 0, 10)));  // dominates both
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.convoys()[0], C({1, 2, 3}, 0, 10));
}

TEST(MaximalConvoySetTest, IncomparableConvoysCoexist) {
  MaximalConvoySet set;
  EXPECT_TRUE(set.Insert(C({1, 2}, 0, 10)));
  EXPECT_TRUE(set.Insert(C({1, 2, 3}, 0, 5)));  // shorter but bigger
  EXPECT_EQ(set.size(), 2u);
}

TEST(FilterMaximalTest, RemovesSubConvoysAndSorts) {
  std::vector<Convoy> in{C({1, 2}, 5, 9), C({1, 2, 3}, 5, 9), C({4, 5}, 0, 3),
                         C({1, 2}, 5, 9)};
  const std::vector<Convoy> out = FilterMaximal(in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], C({4, 5}, 0, 3));
  EXPECT_EQ(out[1], C({1, 2, 3}, 5, 9));
}

TEST(FilterMinLengthTest, DropsShortConvoys) {
  std::vector<Convoy> in{C({1, 2}, 0, 3), C({1, 2}, 0, 2)};
  const std::vector<Convoy> out = FilterMinLength(in, 4);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].length(), 4);
}

// ---------------------------------------------------------------------------
// TimeRange & MiningParams
// ---------------------------------------------------------------------------

TEST(TimeRangeTest, LengthAndContains) {
  const TimeRange r{2, 5};
  EXPECT_EQ(r.length(), 4);
  EXPECT_TRUE(r.Contains(2));
  EXPECT_TRUE(r.Contains(5));
  EXPECT_FALSE(r.Contains(6));
  EXPECT_TRUE((TimeRange{3, 2}).empty());
  EXPECT_EQ((TimeRange{3, 2}).length(), 0);
}

TEST(MiningParamsTest, Validity) {
  EXPECT_TRUE((MiningParams{2, 2, 0.1}).Valid());
  EXPECT_FALSE((MiningParams{1, 2, 0.1}).Valid());
  EXPECT_FALSE((MiningParams{2, 1, 0.1}).Valid());
  EXPECT_FALSE((MiningParams{2, 2, 0.0}).Valid());
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  const Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

Status FailingOperation() { return Status::NotFound("nope"); }

Status Caller() {
  K2_RETURN_NOT_OK(FailingOperation());
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(Caller().code(), StatusCode::kNotFound);
}

Result<int> ProduceValue(bool fail) {
  if (fail) return Status::Invalid("bad");
  return 41;
}

Result<int> ConsumeValue(bool fail) {
  K2_ASSIGN_OR_RETURN(int v, ProduceValue(fail));
  return v + 1;
}

TEST(ResultTest, AssignOrReturn) {
  auto ok = ConsumeValue(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  auto err = ConsumeValue(true);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalid);
}

// ---------------------------------------------------------------------------
// Rng / timers
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformRanges) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.Uniform(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(99);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(PhaseTimerTest, AccumulatesNamedPhases) {
  PhaseTimer timer;
  timer.Add("a", 1.0);
  timer.Add("b", 2.0);
  timer.Add("a", 0.5);
  EXPECT_DOUBLE_EQ(timer.Get("a"), 1.5);
  EXPECT_DOUBLE_EQ(timer.Get("b"), 2.0);
  EXPECT_DOUBLE_EQ(timer.Get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(timer.Total(), 3.5);
  ASSERT_EQ(timer.phases().size(), 2u);
  EXPECT_EQ(timer.phases()[0].first, "a");  // insertion order kept
}

TEST(PhaseTimerTest, TimeRunsCallableAndReturnsValue) {
  PhaseTimer timer;
  const int v = timer.Time("phase", [] { return 7; });
  EXPECT_EQ(v, 7);
  EXPECT_GE(timer.Get("phase"), 0.0);
}

}  // namespace
}  // namespace k2
