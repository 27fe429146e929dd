// Serving differential: a ConvoyCatalog fed from batch MineK2Hop, from
// OnlineK2HopMiner (incrementally via on_closed + ReplaceAll after
// Finalize), and from time-sharded MineK2Hop must answer EVERY query
// identically — ByObject over all object ids, ByTimeWindow over a sweep of
// windows, ByRegion over a grid of rects, TopK under both metrics, and
// random conjunctions. This is the serving-layer analogue of the miner
// differential suites: the miners are already proven byte-identical, so
// any divergence here is a catalog/index bug.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/k2hop.h"
#include "core/online.h"
#include "gen/brinkhoff.h"
#include "gen/synthetic.h"
#include "serve/catalog.h"
#include "serve/query.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeMemStore;
using ::k2::testing::Str;

struct FedCatalog {
  std::string source;
  std::unique_ptr<MemoryStore> store;  // keeps footprint reads alive
  std::unique_ptr<ConvoyCatalog> catalog;
  std::shared_ptr<const CatalogSnapshot> snap;
};

FedCatalog FeedFromBatch(const Dataset& data, const MiningParams& params) {
  FedCatalog fed;
  fed.source = "batch";
  fed.store = MakeMemStore(data);
  auto mined = MineK2Hop(fed.store.get(), params);
  K2_CHECK(mined.ok());
  fed.catalog = std::make_unique<ConvoyCatalog>();
  K2_CHECK_OK(fed.catalog->AddConvoys(mined.value(), fed.store.get()));
  fed.snap = fed.catalog->Publish();
  return fed;
}

FedCatalog FeedFromOnline(const Dataset& data, const MiningParams& params) {
  FedCatalog fed;
  fed.source = "online";
  fed.store = std::make_unique<MemoryStore>();
  fed.catalog = std::make_unique<ConvoyCatalog>();
  OnlineK2HopOptions options;
  // Publish on every closed convoy: the catalog lives through many interim
  // epochs before the reconcile, like a real serving deployment would.
  options.on_closed = fed.catalog->OnClosedHook(fed.store.get(), 1);
  OnlineK2HopMiner miner(fed.store.get(), params, options);
  for (Timestamp t : data.timestamps()) {
    K2_CHECK_OK(miner.AppendTick(t, SnapshotPoints(data, t)));
  }
  auto final_result = miner.Finalize();
  K2_CHECK(final_result.ok());
  K2_CHECK_OK(fed.catalog->hook_status());
  K2_CHECK_OK(fed.catalog->ReplaceAll(final_result.value(), fed.store.get()));
  fed.snap = fed.catalog->Publish();
  return fed;
}

FedCatalog FeedFromPartitioned(const Dataset& data,
                               const MiningParams& params) {
  FedCatalog fed;
  fed.source = "partitioned";
  fed.store = MakeMemStore(data);
  K2HopOptions options;
  options.num_shards = 3;
  options.num_threads = 2;
  auto mined = MineK2Hop(fed.store.get(), params, options);
  K2_CHECK(mined.ok());
  fed.catalog = std::make_unique<ConvoyCatalog>();
  K2_CHECK_OK(fed.catalog->AddConvoys(mined.value(), fed.store.get()));
  fed.snap = fed.catalog->Publish();
  return fed;
}

/// Bounding box of the dataset, for region probes.
Rect BoundingBox(const Dataset& data) {
  Rect box;
  if (data.empty()) return box;
  box.min_x = box.max_x = data.records()[0].x;
  box.min_y = box.max_y = data.records()[0].y;
  for (const PointRecord& rec : data.records()) {
    box.min_x = std::min(box.min_x, rec.x);
    box.max_x = std::max(box.max_x, rec.x);
    box.min_y = std::min(box.min_y, rec.y);
    box.max_y = std::max(box.max_y, rec.y);
  }
  return box;
}

/// Materializes ids so failure messages show convoys, not indexes.
std::vector<Convoy> Resolve(const CatalogSnapshot& snap,
                            const std::vector<ConvoyId>& ids) {
  std::vector<Convoy> out;
  out.reserve(ids.size());
  for (ConvoyId id : ids) out.push_back(snap.convoy(id));
  return out;
}

void ExpectIdenticalAnswers(const std::vector<FedCatalog>& fed,
                            const Dataset& data) {
  const CatalogSnapshot& reference = *fed[0].snap;

  // The snapshots themselves must be identical convoy-for-convoy (the
  // miners are byte-identical) and footprint-for-footprint.
  for (const FedCatalog& other : fed) {
    ASSERT_EQ(other.snap->convoys(), reference.convoys())
        << fed[0].source << " vs " << other.source << "\nref:\n"
        << Str(reference.convoys()) << "other:\n"
        << Str(other.snap->convoys());
    EXPECT_EQ(other.snap->footprint_points(), reference.footprint_points())
        << fed[0].source << " vs " << other.source;
  }

  std::vector<ConvoyId> expected, got;

  // ByObject: every object id that occurs in the data, plus a stranger.
  std::vector<ObjectId> oids;
  for (const PointRecord& rec : data.records()) oids.push_back(rec.oid);
  std::sort(oids.begin(), oids.end());
  oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
  oids.push_back(1u << 30);
  for (ObjectId oid : oids) {
    reference.ByObject(oid, &expected);
    for (const FedCatalog& other : fed) {
      other.snap->ByObject(oid, &got);
      ASSERT_EQ(got, expected) << other.source << ": ByObject(" << oid << ")";
    }
  }

  // ByTimeWindow: a sweep of windows over (and beyond) the tick range.
  const TimeRange range = data.time_range();
  const Timestamp span = static_cast<Timestamp>(range.length());
  const Timestamp step = std::max<Timestamp>(1, span / 13);
  for (Timestamp a = range.start - step; a <= range.end + step; a += step) {
    for (Timestamp width : {Timestamp{0}, step, static_cast<Timestamp>(
                                                    2 * step + 1),
                            span}) {
      const TimeRange window{a, static_cast<Timestamp>(a + width)};
      reference.ByTimeWindow(window, &expected);
      for (const FedCatalog& other : fed) {
        other.snap->ByTimeWindow(window, &got);
        ASSERT_EQ(Resolve(*other.snap, got), Resolve(reference, expected))
            << other.source << ": ByTimeWindow([" << window.start << ","
            << window.end << "])";
      }
    }
  }

  // ByRegion: a grid of rects tiling the bounding box at two granularities,
  // plus the whole box and a far-away rect.
  const Rect box = BoundingBox(data);
  std::vector<Rect> rects = {box,
                             Rect{box.max_x + 100.0, box.max_y + 100.0,
                                  box.max_x + 200.0, box.max_y + 200.0}};
  for (int cells : {3, 7}) {
    const double w = (box.max_x - box.min_x) / cells;
    const double h = (box.max_y - box.min_y) / cells;
    for (int i = 0; i < cells; ++i) {
      for (int j = 0; j < cells; ++j) {
        rects.push_back(Rect{box.min_x + i * w, box.min_y + j * h,
                             box.min_x + (i + 1) * w,
                             box.min_y + (j + 1) * h});
      }
    }
  }
  for (const Rect& rect : rects) {
    reference.ByRegion(rect, &expected);
    for (const FedCatalog& other : fed) {
      other.snap->ByRegion(rect, &got);
      ASSERT_EQ(got, expected)
          << other.source << ": ByRegion([" << rect.min_x << "," << rect.min_y
          << "," << rect.max_x << "," << rect.max_y << "])";
    }
  }

  // TopK under both metrics, k from 1 to beyond the catalog size.
  for (ConvoyRank rank : {ConvoyRank::kLongest, ConvoyRank::kLargest}) {
    for (size_t k : {size_t{1}, size_t{3}, reference.size(),
                     reference.size() + 5}) {
      ConvoyQueryEngine::TopKIds(reference, {}, rank, k, &expected);
      for (const FedCatalog& other : fed) {
        ConvoyQueryEngine::TopKIds(*other.snap, {}, rank, k, &got);
        ASSERT_EQ(got, expected) << other.source << ": TopK(k=" << k << ")";
      }
    }
  }

  // Random conjunctions (object AND window AND region in every subset).
  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    ConvoyQuery query;
    if (rng.NextInt(2) == 0 && !oids.empty()) {
      query.object = oids[rng.NextInt(oids.size())];
    }
    if (rng.NextInt(2) == 0) {
      const Timestamp a = static_cast<Timestamp>(
          range.start + static_cast<Timestamp>(rng.NextInt(
                            static_cast<uint64_t>(span) + 1)));
      query.time_window =
          TimeRange{a, static_cast<Timestamp>(
                           a + static_cast<Timestamp>(rng.NextInt(
                                   static_cast<uint64_t>(span) + 1)))};
    }
    if (rng.NextInt(2) == 0) {
      const double x0 = rng.Uniform(box.min_x, box.max_x);
      const double y0 = rng.Uniform(box.min_y, box.max_y);
      query.region = Rect{x0, y0, x0 + rng.Uniform(0.0, box.max_x - box.min_x),
                          y0 + rng.Uniform(0.0, box.max_y - box.min_y)};
    }
    ConvoyQueryEngine::FindIds(reference, query, &expected);
    for (const FedCatalog& other : fed) {
      ConvoyQueryEngine::FindIds(*other.snap, query, &got);
      ASSERT_EQ(got, expected) << other.source << ": conjunction trial "
                               << trial;
    }
    ConvoyQueryEngine::TopKIds(reference, query, ConvoyRank::kLargest, 4,
                               &expected);
    for (const FedCatalog& other : fed) {
      ConvoyQueryEngine::TopKIds(*other.snap, query, ConvoyRank::kLargest, 4,
                                 &got);
      ASSERT_EQ(got, expected) << other.source << ": top-k conjunction trial "
                               << trial;
    }
  }
}

void RunDifferential(const Dataset& data, const MiningParams& params) {
  std::vector<FedCatalog> fed;
  fed.push_back(FeedFromBatch(data, params));
  fed.push_back(FeedFromOnline(data, params));
  fed.push_back(FeedFromPartitioned(data, params));
  ASSERT_FALSE(fed[0].snap->empty())
      << "degenerate differential: no convoys mined";
  ExpectIdenticalAnswers(fed, data);
}

TEST(ServeDifferentialTest, RandomWalks) {
  for (const uint64_t seed : {11u, 57u}) {
    RandomWalkSpec spec;
    spec.seed = seed;
    spec.num_objects = 24;
    spec.num_ticks = 60;
    spec.area = 40.0;
    spec.step = 5.0;
    const Dataset data = GenerateRandomWalk(spec);
    RunDifferential(data, MiningParams{2, 6, 6.0});
  }
}

TEST(ServeDifferentialTest, GappedTickStream) {
  RandomWalkSpec spec;
  spec.seed = 23;
  spec.num_objects = 20;
  spec.num_ticks = 80;
  spec.area = 40.0;
  spec.step = 5.0;
  const Dataset walk = GenerateRandomWalk(spec);
  DatasetBuilder builder;
  for (const PointRecord& rec : walk.records()) {
    if (rec.t % 7 == 1) continue;  // drop whole ticks
    builder.Add(rec);
  }
  RunDifferential(builder.Build(), MiningParams{2, 6, 6.0});
}

TEST(ServeDifferentialTest, Brinkhoff) {
  BrinkhoffParams params;
  params.grid.nx = 6;
  params.grid.ny = 6;
  params.grid.spacing = 500.0;
  params.max_time = 90;
  params.obj_begin = 120;
  params.obj_time = 4;
  params.seed = 5;
  const Dataset data = GenerateBrinkhoff(params);
  RunDifferential(data, MiningParams{2, 6, 150.0});  // 42 convoys
}

TEST(ServeDifferentialTest, CoarseFootprintStrideStaysIdentical) {
  // A catalog with stride > 1 samples fewer footprint points; all three
  // sources must still agree with each other at that stride.
  RandomWalkSpec spec;
  spec.seed = 91;
  spec.num_objects = 18;
  spec.num_ticks = 50;
  spec.area = 30.0;
  spec.step = 4.0;
  const Dataset data = GenerateRandomWalk(spec);
  const MiningParams params{2, 6, 5.0};

  CatalogOptions coarse;
  coarse.footprint_stride = 3;

  std::vector<FedCatalog> fed;
  // Batch with coarse stride.
  {
    FedCatalog f;
    f.source = "batch-coarse";
    f.store = MakeMemStore(data);
    auto mined = MineK2Hop(f.store.get(), params);
    K2_CHECK(mined.ok());
    f.catalog = std::make_unique<ConvoyCatalog>(coarse);
    K2_CHECK_OK(f.catalog->AddConvoys(mined.value(), f.store.get()));
    f.snap = f.catalog->Publish();
    fed.push_back(std::move(f));
  }
  // Partitioned with coarse stride.
  {
    FedCatalog f;
    f.source = "partitioned-coarse";
    f.store = MakeMemStore(data);
    auto mined = MineK2Hop(f.store.get(), params, {.num_shards = 4});
    K2_CHECK(mined.ok());
    f.catalog = std::make_unique<ConvoyCatalog>(coarse);
    K2_CHECK_OK(f.catalog->AddConvoys(mined.value(), f.store.get()));
    f.snap = f.catalog->Publish();
    fed.push_back(std::move(f));
  }
  ASSERT_FALSE(fed[0].snap->empty());
  ExpectIdenticalAnswers(fed, data);
}

}  // namespace
}  // namespace k2
