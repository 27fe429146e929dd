// Unit tests for the serving layer: ConvoyCatalog index correctness
// (interval, inverted object, spatial footprint — the last also against a
// brute-force region oracle), the typed query API and its conjunctions,
// RCU snapshot semantics (readers keep their epoch while
// the writer publishes new ones), incremental publishes against a fresh
// build after every one, the OnlineK2HopMiner on_closed adapter,
// and concurrent readers hammering the catalog during ingest (run under
// TSan in CI).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/k2hop.h"
#include "core/online.h"
#include "serve/catalog.h"
#include "serve/query.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::C;
using ::k2::testing::MakeDataset;
using ::k2::testing::MakeMemStore;

// Three convoys with hand-picked lifespans and positions:
//   A = ({1, 2}, [0, 5])    along y = 0, x in [0, 51]
//   B = ({2, 3}, [6, 11])   along y = 100, x in [0, 51] (oid 2 moves on)
//   C = ({4, 5, 6}, [20, 23]) parked near (1000, 1000)
class ServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<std::tuple<Timestamp, ObjectId, double, double>> rows;
    for (Timestamp t = 0; t <= 5; ++t) {
      rows.push_back({t, 1, t * 10.0, 0.0});
      rows.push_back({t, 2, t * 10.0 + 1.0, 0.0});
    }
    for (Timestamp t = 6; t <= 11; ++t) {
      rows.push_back({t, 2, (t - 6) * 10.0, 100.0});
      rows.push_back({t, 3, (t - 6) * 10.0 + 1.0, 100.0});
    }
    for (Timestamp t = 20; t <= 23; ++t) {
      for (ObjectId oid = 4; oid <= 6; ++oid) {
        rows.push_back({t, oid, 1000.0 + oid, 1000.0});
      }
    }
    store_ = MakeMemStore(MakeDataset(rows));
    a_ = C({1, 2}, 0, 5);
    b_ = C({2, 3}, 6, 11);
    c_ = C({4, 5, 6}, 20, 23);
    ASSERT_TRUE(
        catalog_.AddConvoys(std::vector<Convoy>{a_, b_, c_}, store_.get())
            .ok());
    catalog_.Publish();
  }

  std::unique_ptr<MemoryStore> store_;
  ConvoyCatalog catalog_;
  Convoy a_, b_, c_;
};

TEST(ServeEmptyTest, EmptyCatalogAnswersNothing) {
  ConvoyCatalog catalog;
  ConvoyQueryEngine engine(&catalog);
  EXPECT_EQ(catalog.snapshot()->epoch(), 0u);
  EXPECT_TRUE(engine.ByObject(1).empty());
  EXPECT_TRUE(engine.ByTimeWindow({0, 100}).empty());
  EXPECT_TRUE(engine.ByRegion(Rect{-1e9, -1e9, 1e9, 1e9}).empty());
  EXPECT_TRUE(engine.TopK(ConvoyRank::kLongest, 5).empty());
  EXPECT_TRUE(engine.Find({}).empty());
}

TEST_F(ServeFixture, ByObjectFindsContainingConvoys) {
  ConvoyQueryEngine engine(&catalog_);
  EXPECT_EQ(engine.ByObject(1), (std::vector<Convoy>{a_}));
  EXPECT_EQ(engine.ByObject(2), (std::vector<Convoy>{a_, b_}));
  EXPECT_EQ(engine.ByObject(5), (std::vector<Convoy>{c_}));
  EXPECT_TRUE(engine.ByObject(99).empty());
}

TEST_F(ServeFixture, ByTimeWindowOverlapSemantics) {
  ConvoyQueryEngine engine(&catalog_);
  // Overlap is inclusive on both ends.
  EXPECT_EQ(engine.ByTimeWindow({5, 6}), (std::vector<Convoy>{a_, b_}));
  EXPECT_EQ(engine.ByTimeWindow({5, 5}), (std::vector<Convoy>{a_}));
  EXPECT_EQ(engine.ByTimeWindow({0, 3}), (std::vector<Convoy>{a_}));
  EXPECT_EQ(engine.ByTimeWindow({11, 20}), (std::vector<Convoy>{b_, c_}));
  EXPECT_EQ(engine.ByTimeWindow({0, 100}), (std::vector<Convoy>{a_, b_, c_}));
  EXPECT_TRUE(engine.ByTimeWindow({12, 19}).empty());
  EXPECT_TRUE(engine.ByTimeWindow({24, 3}).empty());  // empty window
}

TEST_F(ServeFixture, ByRegionFindsConvoysPassingThrough) {
  ConvoyQueryEngine engine(&catalog_);
  // y = 0 corridor: only A.
  EXPECT_EQ(engine.ByRegion(Rect{-10.0, -1.0, 60.0, 1.0}),
            (std::vector<Convoy>{a_}));
  // The parked cluster.
  EXPECT_EQ(engine.ByRegion(Rect{990.0, 990.0, 1010.0, 1010.0}),
            (std::vector<Convoy>{c_}));
  // Both corridors.
  EXPECT_EQ(engine.ByRegion(Rect{-10.0, -1.0, 60.0, 101.0}),
            (std::vector<Convoy>{a_, b_}));
  EXPECT_TRUE(engine.ByRegion(Rect{-500.0, -500.0, -400.0, -400.0}).empty());
  // Infinite bounds are ordinary bounds; a NaN bound, which a wire query
  // can carry, contains no point (as with Rect::Contains).
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(engine.ByRegion(Rect{-inf, -inf, inf, inf}),
            (std::vector<Convoy>{a_, b_, c_}));
  EXPECT_TRUE(engine.ByRegion(Rect{std::nan(""), -inf, inf, inf}).empty());
  EXPECT_TRUE(engine.ByRegion(Rect{-inf, -inf, inf, std::nan("")}).empty());
}

// Region oracle: every answer is checked against a brute-force scan that
// re-reads each convoy's members at every tick of its lifespan from the
// store and tests them with Rect::Contains. Positions are integers on a
// small board, so rect edges land exactly on points.
class RegionOracle {
 public:
  RegionOracle(const CatalogSnapshot& snap, Store* store) {
    std::vector<SnapshotPoint> buf;
    for (const Convoy& c : snap.convoys()) {
      std::vector<FootprintPoint>& fp = footprints_.emplace_back();
      for (Timestamp t = c.start; t <= c.end; ++t) {
        K2_CHECK_OK(store->GetPoints(t, c.objects, &buf));
        for (const SnapshotPoint& p : buf) fp.push_back({p.x, p.y});
      }
    }
  }

  const std::vector<FootprintPoint>& footprint(ConvoyId id) const {
    return footprints_[id];
  }

  bool Hits(ConvoyId id, const Rect& rect) const {
    for (const FootprintPoint& p : footprints_[id]) {
      if (rect.Contains(p.x, p.y)) return true;
    }
    return false;
  }

 private:
  std::vector<std::vector<FootprintPoint>> footprints_;
};

struct RegionOracleConfig {
  uint64_t seed;
  int rounds;
  int ticks;  // the store holds ticks [0, ticks)
  int board;  // positions are integers in [0, board]
  int span;   // a lifespan is at most span + 1 ticks
};

// Checks ByRegion, and its conjunctions with an object and a window, on
// random catalogs over random walks against RegionOracle. `middle_only`
// counts the checked rects whose only points of the probed footprint lie
// in a middle chunk (neither its first nor its last).
void CheckRegionAnswers(const RegionOracleConfig& config, int* middle_only) {
  constexpr int kObjects = 24, kConvoys = 12;
  constexpr size_t kChunk = CatalogEntry::kChunk;
  const int kTicks = config.ticks, kBoard = config.board;
  Rng rng(config.seed);
  for (int round = 0; round < config.rounds; ++round) {
    // Integer random walks; an object skips a tick now and then, so some
    // footprint reads find fewer members than the convoy has.
    std::vector<std::tuple<Timestamp, ObjectId, double, double>> rows;
    for (ObjectId oid = 0; oid < kObjects; ++oid) {
      int64_t x = rng.UniformInt(0, kBoard), y = rng.UniformInt(0, kBoard);
      for (Timestamp t = 0; t < kTicks; ++t) {
        x = std::clamp<int64_t>(x + rng.UniformInt(-2, 2), 0, kBoard);
        y = std::clamp<int64_t>(y + rng.UniformInt(-2, 2), 0, kBoard);
        if (!rng.Bernoulli(0.1)) {
          rows.push_back({t, oid, static_cast<double>(x),
                          static_cast<double>(y)});
        }
      }
    }
    auto store = MakeMemStore(MakeDataset(rows));
    std::vector<Convoy> convoys;
    for (int i = 0; i < kConvoys; ++i) {
      std::vector<ObjectId> ids;
      const int64_t size = rng.UniformInt(2, 4);
      while (static_cast<int64_t>(ids.size()) < size) {
        // Object kObjects never appears in the store: its convoys can have
        // an empty footprint.
        const ObjectId oid =
            static_cast<ObjectId>(rng.UniformInt(0, kObjects));
        if (std::find(ids.begin(), ids.end(), oid) == ids.end()) {
          ids.push_back(oid);
        }
      }
      const Timestamp start =
          static_cast<Timestamp>(rng.UniformInt(0, kTicks - 1));
      const Timestamp end = static_cast<Timestamp>(
          rng.UniformInt(start, std::min(start + config.span, kTicks - 1)));
      convoys.emplace_back(ObjectSet(ids), start, end);
    }
    ConvoyCatalog catalog;
    ASSERT_TRUE(catalog.AddConvoys(convoys, store.get()).ok());
    const auto snap = catalog.Publish();
    const RegionOracle oracle(*snap, store.get());

    for (int r = 0; r < 400; ++r) {
      const auto check = [&](const Rect& rect) {
        std::vector<ConvoyId> hits;
        for (ConvoyId id = 0; id < snap->size(); ++id) {
          if (oracle.Hits(id, rect)) hits.push_back(id);
        }
        std::vector<ConvoyId> got;
        snap->ByRegion(rect, &got);
        ASSERT_EQ(got, hits) << "round " << round << " rect " << r;

        ConvoyQuery by_object;
        by_object.object = static_cast<ObjectId>(rng.UniformInt(0, kObjects));
        by_object.region = rect;
        std::vector<ConvoyId> want;
        for (ConvoyId id : hits) {
          if (snap->convoy(id).objects.Contains(*by_object.object)) {
            want.push_back(id);
          }
        }
        ConvoyQueryEngine::FindIds(*snap, by_object, &got);
        ASSERT_EQ(got, want) << "round " << round << " rect " << r;

        ConvoyQuery by_window;
        const Timestamp a = static_cast<Timestamp>(rng.UniformInt(0, kTicks));
        by_window.time_window =
            TimeRange{a, static_cast<Timestamp>(a + rng.UniformInt(0, 8))};
        by_window.region = rect;
        want.clear();
        for (ConvoyId id : hits) {
          const Convoy& c = snap->convoy(id);
          if (c.start <= by_window.time_window->end &&
              c.end >= by_window.time_window->start) {
            want.push_back(id);
          }
        }
        ConvoyQueryEngine::FindIds(*snap, by_window, &got);
        ASSERT_EQ(got, want) << "round " << round << " rect " << r;
      };

      const ConvoyId some =
          static_cast<ConvoyId>(rng.NextInt(snap->size()));
      const std::vector<FootprintPoint>& fp = oracle.footprint(some);
      Rect box;
      for (size_t i = 0; i < fp.size(); ++i) {
        box = i == 0 ? Rect{fp[i].x, fp[i].y, fp[i].x, fp[i].y}
                     : Rect{std::min(box.min_x, fp[i].x),
                            std::min(box.min_y, fp[i].y),
                            std::max(box.max_x, fp[i].x),
                            std::max(box.max_y, fp[i].y)};
      }
      const double x0 = static_cast<double>(rng.UniformInt(-2, kBoard + 2));
      const double y0 = static_cast<double>(rng.UniformInt(-2, kBoard + 2));
      Rect rect;
      switch (r % 6) {
        case 0:  // integer corners, edges on points
          rect = {x0, y0, x0 + static_cast<double>(rng.UniformInt(0, 12)),
                  y0 + static_cast<double>(rng.UniformInt(0, 12))};
          break;
        case 1:  // zero width, zero height, or a single point
          rect = {x0, y0, x0, y0};
          if (rng.Bernoulli(0.5)) {
            rect.max_x += static_cast<double>(rng.UniformInt(0, 8));
          } else {
            rect.max_y += static_cast<double>(rng.UniformInt(0, 8));
          }
          break;
        case 2:  // empty: max < min on one axis
          rect = {x0, y0, x0 + 5.0, y0 + 5.0};
          if (rng.Bernoulli(0.5)) {
            rect.max_x = x0 - 1.0;
          } else {
            rect.max_y = y0 - 1.0;
          }
          break;
        case 3: {
          // Inside the box of `some`: a point, or a fractional rect that
          // holds no point at all (positions are integers).
          if (fp.empty()) {
            rect = {x0, y0, x0, y0};
            break;
          }
          const double px = static_cast<double>(rng.UniformInt(
              static_cast<int64_t>(box.min_x),
              static_cast<int64_t>(box.max_x)));
          const double py = static_cast<double>(rng.UniformInt(
              static_cast<int64_t>(box.min_y),
              static_cast<int64_t>(box.max_y)));
          rect = px < box.max_x && py < box.max_y && rng.Bernoulli(0.5)
                     ? Rect{px + 0.25, py + 0.25, px + 0.75, py + 0.75}
                     : Rect{px, py, px, py};
          break;
        }
        case 4:  // contains the whole box of `some`
          rect = fp.empty() ? Rect{-1.0, -1.0, kBoard + 1.0, kBoard + 1.0}
                            : Rect{box.min_x - rng.UniformInt(0, 2),
                                   box.min_y - rng.UniformInt(0, 2),
                                   box.max_x + rng.UniformInt(0, 2),
                                   box.max_y + rng.UniformInt(0, 2)};
          break;
        default:  // wide, possibly off the board
          rect = {x0 - 20.0, y0 - 20.0,
                  x0 + static_cast<double>(rng.UniformInt(0, 40)),
                  y0 + static_cast<double>(rng.UniformInt(0, 40))};
          break;
      }

      ASSERT_NO_FATAL_FAILURE(check(rect));

      // A point of a middle chunk of `some`'s footprint, which the
      // footprint holds nowhere else when the walks do not revisit it.
      const size_t chunks = (fp.size() + kChunk - 1) / kChunk;
      if (chunks >= 3) {
        const auto p = static_cast<size_t>(rng.UniformInt(
            static_cast<int64_t>(kChunk),
            static_cast<int64_t>((chunks - 1) * kChunk - 1)));
        const Rect point{fp[p].x, fp[p].y, fp[p].x, fp[p].y};
        bool middle = true;
        for (size_t q = 0; q < fp.size(); ++q) {
          if (point.Contains(fp[q].x, fp[q].y) &&
              (q < kChunk || q >= (chunks - 1) * kChunk)) {
            middle = false;
          }
        }
        *middle_only += middle;
        ASSERT_NO_FATAL_FAILURE(check(point));
      }
    }
  }
}

TEST(ServeRegionOracleTest, RegionAnswersMatchBruteForce) {
  int middle_only = 0;
  // Lifespans of at most 11 ticks: footprints of one or two chunks.
  ASSERT_NO_FATAL_FAILURE(
      CheckRegionAnswers({20261017, 40, 30, 40, 10}, &middle_only));
  EXPECT_EQ(middle_only, 0);
  // Lifespans of up to 81 ticks: footprints of many chunks, most of them
  // ending in a partial one, probed at single points of middle chunks too.
  ASSERT_NO_FATAL_FAILURE(
      CheckRegionAnswers({20261020, 20, 120, 120, 80}, &middle_only));
  EXPECT_GE(middle_only, 2500);
}

TEST(ServeFootprintTest, LifespanEndingAtTheLastTimestampIsSampled) {
  // The footprint reads every tick of [max - 2, max]; a tick counter as
  // wide as Timestamp would overflow on its last increment instead of
  // stopping.
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  std::vector<std::tuple<Timestamp, ObjectId, double, double>> rows;
  for (const Timestamp t : {kMax - 2, kMax - 1, kMax}) {
    rows.push_back({t, 1, 0.0, 0.0});
    rows.push_back({t, 2, 1.0, 0.0});
  }
  auto store = MakeMemStore(MakeDataset(rows));
  ConvoyCatalog catalog;
  ASSERT_TRUE(catalog.AddConvoy(C({1, 2}, kMax - 2, kMax), store.get()).ok());
  const auto snap = catalog.Publish();
  ASSERT_EQ(snap->size(), 1u);
  EXPECT_EQ(snap->footprint_points(), 6u);
}

TEST_F(ServeFixture, TopKRanksAndTruncates) {
  ConvoyQueryEngine engine(&catalog_);
  // Longest: A (6) == B (6) tie-broken by canonical order, then C (4).
  EXPECT_EQ(engine.TopK(ConvoyRank::kLongest, 2),
            (std::vector<Convoy>{a_, b_}));
  // Largest: C (3 objects) first.
  EXPECT_EQ(engine.TopK(ConvoyRank::kLargest, 1), (std::vector<Convoy>{c_}));
  // k beyond size returns everything.
  EXPECT_EQ(engine.TopK(ConvoyRank::kLargest, 10).size(), 3u);
}

TEST_F(ServeFixture, ConjunctionsIntersect) {
  ConvoyQueryEngine engine(&catalog_);
  ConvoyQuery query;
  query.object = 2;
  query.time_window = TimeRange{6, 9};
  EXPECT_EQ(engine.Find(query), (std::vector<Convoy>{b_}));

  query.region = Rect{-10.0, -1.0, 60.0, 1.0};  // y = 0 corridor: A only
  EXPECT_TRUE(engine.Find(query).empty());

  ConvoyQuery by_region_and_time;
  by_region_and_time.time_window = TimeRange{0, 30};
  by_region_and_time.region = Rect{900.0, 900.0, 1100.0, 1100.0};
  EXPECT_EQ(engine.Find(by_region_and_time), (std::vector<Convoy>{c_}));

  // TopK over a filtered set.
  ConvoyQuery contains2;
  contains2.object = 2;
  EXPECT_EQ(engine.TopK(contains2, ConvoyRank::kLargest, 1),
            (std::vector<Convoy>{a_}));
}

// Every answer of `snap` to a fixed probe set, for before/after checks.
std::vector<std::vector<ConvoyId>> ProbeAnswers(const CatalogSnapshot& snap) {
  std::vector<std::vector<ConvoyId>> answers;
  for (ObjectId oid = 0; oid <= 9; ++oid) {
    snap.ByObject(oid, &answers.emplace_back());
  }
  for (Timestamp t = 0; t <= 24; t += 3) {
    snap.ByTimeWindow({t, t + 4}, &answers.emplace_back());
  }
  for (const Rect& rect : {Rect{-10.0, -1.0, 60.0, 1.0},
                           Rect{-10.0, -1.0, 60.0, 101.0},
                           Rect{990.0, 990.0, 1010.0, 1010.0}}) {
    snap.ByRegion(rect, &answers.emplace_back());
  }
  for (const ConvoyRank rank : {ConvoyRank::kLongest, ConvoyRank::kLargest}) {
    answers.push_back(snap.Ranked(rank));
  }
  return answers;
}

TEST_F(ServeFixture, SnapshotsAreImmutableAcrossPublishes) {
  const auto pinned = catalog_.snapshot();
  const uint64_t pinned_epoch = pinned->epoch();
  ASSERT_EQ(pinned->size(), 3u);
  const std::vector<Convoy> pinned_convoys = pinned->convoys();
  const auto pinned_answers = ProbeAnswers(*pinned);

  const Convoy extra = C({7, 8}, 0, 9);
  // Give the new objects some positions so the footprint read succeeds.
  // (They are absent from the store, which is also fine: GetPoints skips
  // absent objects, yielding an empty footprint.)
  ASSERT_TRUE(catalog_.AddConvoy(extra, store_.get()).ok());
  EXPECT_EQ(catalog_.pending_size(), 4u);
  // Not yet published: readers still see the old epoch.
  EXPECT_EQ(catalog_.snapshot()->epoch(), pinned_epoch);

  const auto next = catalog_.Publish();
  EXPECT_EQ(next->epoch(), pinned_epoch + 1);
  EXPECT_EQ(next->size(), 4u);
  // The pinned snapshot is unchanged — snapshot consistency under ingest.
  EXPECT_EQ(pinned->size(), 3u);
  std::vector<ConvoyId> ids;
  pinned->ByObject(7, &ids);
  EXPECT_TRUE(ids.empty());
  next->ByObject(7, &ids);
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(pinned->convoys(), pinned_convoys);
  EXPECT_EQ(ProbeAnswers(*pinned), pinned_answers);

  // The publish shares every convoy it already held: each one sits at the
  // same address in the new epoch, under its new id (extra goes in between
  // a_ and b_, so b_ and c_ move up by one).
  ASSERT_EQ(next->convoy(1), extra);
  for (ConvoyId i = 0; i < pinned->size(); ++i) {
    const ConvoyId j = i == 0 ? 0 : i + 1;
    EXPECT_EQ(&next->convoy(j), &pinned->convoy(i)) << "old id " << i;
  }
}

TEST_F(ServeFixture, ReplaceAllDropsStaleConvoys) {
  // Keep A and C, drop B — the reconcile path after Finalize().
  ASSERT_TRUE(
      catalog_.ReplaceAll(std::vector<Convoy>{a_, c_}, store_.get()).ok());
  // The pending content shrank below the published snapshot's.
  EXPECT_EQ(catalog_.pending_size(), 2u);
  EXPECT_EQ(catalog_.snapshot()->size(), 3u);
  const auto snap = catalog_.Publish();
  EXPECT_EQ(snap->convoys(), (std::vector<Convoy>{a_, c_}));
  std::vector<ConvoyId> ids;
  snap->ByObject(3, &ids);
  EXPECT_TRUE(ids.empty());
}

// Publish oracle: every publish merges the convoys added since into the last
// snapshot. After each one, every index must equal that of a catalog fed the
// same content in one AddConvoys + Publish. The feed visits random convoys
// in random order (most enter mid-order), re-adds known ones, and halfway
// replaces the content with a ReplaceAll that drops a third of it.
class ServePublishOracleTest : public ::testing::Test {
 protected:
  static constexpr int kObjects = 30, kTicks = 60, kBoard = 60, kPool = 90;

  void SetUp() override {
    Rng rng(20261018);
    std::vector<std::tuple<Timestamp, ObjectId, double, double>> rows;
    for (ObjectId oid = 0; oid < kObjects; ++oid) {
      int64_t x = rng.UniformInt(0, kBoard), y = rng.UniformInt(0, kBoard);
      for (Timestamp t = 0; t < kTicks; ++t) {
        x = std::clamp<int64_t>(x + rng.UniformInt(-3, 3), 0, kBoard);
        y = std::clamp<int64_t>(y + rng.UniformInt(-3, 3), 0, kBoard);
        rows.push_back(
            {t, oid, static_cast<double>(x), static_cast<double>(y)});
      }
    }
    store_ = MakeMemStore(MakeDataset(rows));
    // Object kObjects never appears in the store (empty footprints).
    for (int i = 0; i < kPool; ++i) {
      std::vector<ObjectId> ids;
      const int64_t size = rng.UniformInt(2, 5);
      while (static_cast<int64_t>(ids.size()) < size) {
        const auto oid = static_cast<ObjectId>(rng.UniformInt(0, kObjects));
        if (std::find(ids.begin(), ids.end(), oid) == ids.end()) {
          ids.push_back(oid);
        }
      }
      const auto start = static_cast<Timestamp>(rng.UniformInt(0, kTicks - 1));
      const auto end = static_cast<Timestamp>(
          rng.UniformInt(start, std::min(start + 15, kTicks - 1)));
      const Convoy convoy(ObjectSet(ids), start, end);
      feed_.push_back(convoy);
      // Now and then re-add a convoy fed earlier.
      if (rng.Bernoulli(0.2)) {
        const Convoy again = feed_[rng.NextInt(feed_.size())];
        feed_.push_back(again);
      }
    }
    for (Timestamp a = -3; a <= kTicks + 2; a += 3) {
      for (Timestamp width : {0, 2, 7, 20}) windows_.push_back({a, a + width});
    }
    for (double x = -4.0; x <= kBoard + 4.0; x += 8.0) {
      for (double y = -4.0; y <= kBoard + 4.0; y += 8.0) {
        rects_.push_back({x, y, x + 8.0, y + 8.0});
        rects_.push_back({x, y, x + 25.0, y + 3.0});
      }
    }
  }

  /// Replaces the content with two thirds of it plus a few pool convoys,
  /// then publishes and checks.
  void ReplaceMidway(ConvoyCatalog* catalog, std::set<Convoy>* content) {
    std::vector<Convoy> keep;
    size_t i = 0;
    for (const Convoy& convoy : *content) {
      if (i++ % 3 != 0) keep.push_back(convoy);
    }
    ASSERT_LT(keep.size(), content->size());
    for (size_t j = feed_.size() - 3; j < feed_.size(); ++j) {
      keep.push_back(feed_[j]);
    }
    keep.push_back(keep.front());  // a duplicate inside the replacement
    ASSERT_TRUE(catalog->ReplaceAll(keep, store_.get()).ok());
    *content = std::set<Convoy>(keep.begin(), keep.end());
    ASSERT_EQ(catalog->pending_size(), content->size());
    ExpectMatchesFreshBuild(*catalog->Publish(), *content);
  }

  void ExpectMatchesFreshBuild(const CatalogSnapshot& got,
                               const std::set<Convoy>& content) {
    ASSERT_GT(got.epoch(), epoch_);
    epoch_ = got.epoch();
    ++publishes_;
    const std::vector<Convoy> all(content.begin(), content.end());
    ConvoyCatalog fresh;
    ASSERT_TRUE(fresh.AddConvoys(all, store_.get()).ok());
    const auto want = fresh.Publish();
    ASSERT_EQ(want->convoys(), all);
    ASSERT_EQ(got.convoys(), all);
    ASSERT_EQ(got.footprint_points(), want->footprint_points());
    std::vector<ConvoyId> g, w;
    for (ObjectId oid = 0; oid <= kObjects + 1; ++oid) {
      got.ByObject(oid, &g);
      want->ByObject(oid, &w);
      ASSERT_EQ(g, w) << "oid " << oid;
    }
    for (const TimeRange& window : windows_) {
      got.ByTimeWindow(window, &g);
      want->ByTimeWindow(window, &w);
      ASSERT_EQ(g, w) << "window [" << window.start << ", " << window.end
                      << "]";
      nonempty_windows_ += !w.empty();
    }
    for (const Rect& rect : rects_) {
      got.ByRegion(rect, &g);
      want->ByRegion(rect, &w);
      ASSERT_EQ(g, w) << "rect at (" << rect.min_x << ", " << rect.min_y
                      << ")";
      nonempty_regions_ += !w.empty();
    }
    for (const ConvoyRank rank : {ConvoyRank::kLongest, ConvoyRank::kLargest}) {
      ASSERT_EQ(got.Ranked(rank), want->Ranked(rank));
    }
  }

  /// Feeds feed_ through OnClosedHook, checking after every publish it
  /// makes; replaces the content midway.
  void RunHook(size_t publish_every) {
    ConvoyCatalog catalog;
    auto hook = catalog.OnClosedHook(store_.get(), publish_every);
    std::set<Convoy> content;
    for (size_t i = 0; i < feed_.size(); ++i) {
      if (i == feed_.size() / 2) {
        ASSERT_NO_FATAL_FAILURE(ReplaceMidway(&catalog, &content));
      }
      const uint64_t before = catalog.snapshot()->epoch();
      hook(feed_[i]);
      content.insert(feed_[i]);
      const auto snap = catalog.snapshot();
      ASSERT_EQ(snap->epoch() != before, (i + 1) % publish_every == 0);
      if (snap->epoch() != before) {
        ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshBuild(*snap, content));
      }
    }
    ASSERT_TRUE(catalog.hook_status().ok());
  }

  std::unique_ptr<MemoryStore> store_;
  std::vector<Convoy> feed_;
  std::vector<TimeRange> windows_;
  std::vector<Rect> rects_;
  uint64_t epoch_ = 0;
  int publishes_ = 0, nonempty_windows_ = 0, nonempty_regions_ = 0;
};

TEST_F(ServePublishOracleTest, HookPublishingEveryConvoy) {
  RunHook(1);
  EXPECT_EQ(publishes_, static_cast<int>(feed_.size()) + 1);
  EXPECT_GE(nonempty_windows_, 6000);
  EXPECT_GE(nonempty_regions_, 9000);
}

TEST_F(ServePublishOracleTest, HookPublishingEveryThirdConvoy) {
  RunHook(3);
  EXPECT_EQ(publishes_, static_cast<int>(feed_.size()) / 3 + 1);
  EXPECT_GE(nonempty_windows_, 2000);
  EXPECT_GE(nonempty_regions_, 3000);
}

TEST_F(ServePublishOracleTest, AddConvoysBatches) {
  Rng rng(7);
  ConvoyCatalog catalog;
  std::set<Convoy> content;
  bool replaced = false;
  for (size_t i = 0; i < feed_.size();) {
    if (!replaced && i >= feed_.size() / 2) {
      ASSERT_NO_FATAL_FAILURE(ReplaceMidway(&catalog, &content));
      replaced = true;
    }
    // A batch of 0 republishes unchanged content under a new epoch.
    const size_t n = std::min<size_t>(feed_.size() - i, rng.NextInt(7));
    ASSERT_TRUE(catalog
                    .AddConvoys(std::span<const Convoy>(&feed_[i], n),
                                store_.get())
                    .ok());
    content.insert(feed_.begin() + i, feed_.begin() + i + n);
    i += n;
    ASSERT_EQ(catalog.pending_size(), content.size());
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatchesFreshBuild(*catalog.Publish(), content));
  }
  EXPECT_GE(nonempty_windows_, 1500);
  EXPECT_GE(nonempty_regions_, 2500);
}

TEST_F(ServeFixture, DuplicateAddIsNoOp) {
  ASSERT_TRUE(catalog_.AddConvoy(a_, store_.get()).ok());
  EXPECT_EQ(catalog_.pending_size(), 3u);
}

TEST(ServeOnlineTest, OnClosedHookMatchesBulkFedCatalog) {
  // A dataset with two disjoint convoys that both end well before the
  // stream does, so the eager channel closes them mid-stream.
  std::vector<std::tuple<Timestamp, ObjectId, double, double>> rows;
  for (Timestamp t = 0; t <= 7; ++t) {
    rows.push_back({t, 1, t * 5.0, 0.0});
    rows.push_back({t, 2, t * 5.0 + 1.0, 0.0});
  }
  for (Timestamp t = 2; t <= 11; ++t) {
    rows.push_back({t, 3, t * 5.0, 200.0});
    rows.push_back({t, 4, t * 5.0 + 1.0, 200.0});
  }
  for (Timestamp t = 0; t <= 30; ++t) {
    rows.push_back({t, 9, 5000.0 + 40.0 * t, 5000.0});  // lone straggler
  }
  const Dataset data = MakeDataset(rows);
  const MiningParams params{2, 3, 2.0};

  // Batch reference catalog.
  auto batch_store = MakeMemStore(data);
  auto batch = MineK2Hop(batch_store.get(), params);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch.value().empty());
  ConvoyCatalog batch_catalog;
  ASSERT_TRUE(batch_catalog.AddConvoys(batch.value(), batch_store.get()).ok());
  batch_catalog.Publish();

  // Online-fed catalog: hook publishes per closed convoy; ReplaceAll with
  // the authoritative Finalize() result reconciles.
  MemoryStore stream_store;
  ConvoyCatalog online_catalog;
  OnlineK2HopOptions options;
  options.on_closed = online_catalog.OnClosedHook(&stream_store, 1);
  OnlineK2HopMiner miner(&stream_store, params, options);
  for (Timestamp t : data.timestamps()) {
    ASSERT_TRUE(miner.AppendTick(t, SnapshotPoints(data, t)).ok());
  }
  // Both convoys end long before the final tick: the eager channel must
  // have published them already.
  EXPECT_GE(online_catalog.snapshot()->size(), 2u);
  auto final_result = miner.Finalize();
  ASSERT_TRUE(final_result.ok());
  ASSERT_TRUE(online_catalog.hook_status().ok());
  ASSERT_TRUE(
      online_catalog.ReplaceAll(final_result.value(), &stream_store).ok());
  const auto online_snap = online_catalog.Publish();

  const auto batch_snap = batch_catalog.snapshot();
  EXPECT_EQ(online_snap->convoys(), batch_snap->convoys());
  EXPECT_EQ(online_snap->footprint_points(), batch_snap->footprint_points());
}

TEST(ServeConcurrencyTest, ConcurrentReadersDuringIngest) {
  // Writer ingests convoy batches and republishes; readers hammer the
  // catalog through the engine the whole time. Run under TSan in CI: the
  // only shared mutable state on the read path must be the atomic
  // shared_ptr swap.
  std::vector<std::tuple<Timestamp, ObjectId, double, double>> rows;
  constexpr int kConvoys = 40;
  for (ObjectId pair = 0; pair < kConvoys; ++pair) {
    for (Timestamp t = 0; t <= 6; ++t) {
      rows.push_back({t, 2 * pair, pair * 100.0 + t, 0.0});
      rows.push_back({t, 2 * pair + 1, pair * 100.0 + t + 0.5, 0.0});
    }
  }
  auto store = MakeMemStore(MakeDataset(rows));
  std::vector<Convoy> convoys;
  for (ObjectId pair = 0; pair < kConvoys; ++pair) {
    convoys.push_back(C({2 * pair, 2 * pair + 1}, 0, 6));
  }

  ConvoyCatalog catalog;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&catalog, &done, &failures, r] {
      ConvoyQueryEngine engine(&catalog);
      uint64_t last_epoch = 0;
      ObjectId probe = static_cast<ObjectId>(r);
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = engine.Pin();
        // Epochs may only move forward.
        if (snap->epoch() < last_epoch) ++failures;
        last_epoch = snap->epoch();
        // Any answer must be internally consistent with the pinned
        // snapshot: ids ascending and within range.
        std::vector<ConvoyId> ids;
        ConvoyQuery query;
        query.time_window = TimeRange{0, 100};
        ConvoyQueryEngine::FindIds(*snap, query, &ids);
        if (ids.size() != snap->size()) ++failures;
        for (size_t i = 0; i < ids.size(); ++i) {
          if (ids[i] != i) ++failures;
        }
        snap->ByObject(probe, &ids);
        for (ConvoyId id : ids) {
          if (!snap->convoy(id).objects.Contains(probe)) ++failures;
        }
        probe = (probe + 7) % (2 * kConvoys);
        std::vector<ConvoyId> top;
        ConvoyQueryEngine::TopKIds(*snap, {}, ConvoyRank::kLongest,
                                   5, &top);
        if (top.size() > 5) ++failures;
      }
    });
  }

  // Ingest in batches of 4, publishing after every batch.
  for (size_t at = 0; at < convoys.size(); at += 4) {
    const size_t n = std::min<size_t>(4, convoys.size() - at);
    ASSERT_TRUE(catalog
                    .AddConvoys(std::span<const Convoy>(&convoys[at], n),
                                store.get())
                    .ok());
    catalog.Publish();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(catalog.snapshot()->size(), convoys.size());
}

}  // namespace
}  // namespace k2
