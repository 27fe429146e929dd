// Unit tests for src/common: ObjectSet algebra, Convoy/maximality, Status /
// Result plumbing, RNG determinism, timers.
#include <gtest/gtest.h>

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
