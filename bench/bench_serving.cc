// Serving benchmark: builds a ConvoyCatalog from each of the three miner
// sources (batch MineK2Hop, streaming OnlineK2HopMiner via the on_closed
// hook, time-sharded MineK2Hop), equality-checks that the
// catalogs answer a probe set identically, and measures query throughput
// (queries/sec) per query type — single-reader and with every hardware
// thread hammering the same catalog through pinned snapshots, the
// concurrent read path the epoch/RCU design exists for.
#include "bench/harness.h"

#include <atomic>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/online.h"
#include "serve/catalog.h"
#include "serve/query.h"
#include "storage/memory_store.h"

using namespace k2;
using namespace k2::bench;

namespace {

struct QueryMix {
  std::vector<ObjectId> oids;
  std::vector<TimeRange> windows;
  std::vector<Rect> rects;
  std::vector<ConvoyQuery> conjunctions;
};

QueryMix MakeMix(const Dataset& data, size_t per_type) {
  QueryMix mix;
  Rng rng(777);
  std::vector<ObjectId> all_oids;
  for (const PointRecord& rec : data.records()) all_oids.push_back(rec.oid);
  std::sort(all_oids.begin(), all_oids.end());
  all_oids.erase(std::unique(all_oids.begin(), all_oids.end()),
                 all_oids.end());

  Rect box;
  box.min_x = box.max_x = data.records()[0].x;
  box.min_y = box.max_y = data.records()[0].y;
  for (const PointRecord& rec : data.records()) {
    box.min_x = std::min(box.min_x, rec.x);
    box.max_x = std::max(box.max_x, rec.x);
    box.min_y = std::min(box.min_y, rec.y);
    box.max_y = std::max(box.max_y, rec.y);
  }
  const TimeRange range = data.time_range();
  const auto span = static_cast<uint64_t>(range.length());

  for (size_t i = 0; i < per_type; ++i) {
    mix.oids.push_back(all_oids[rng.NextInt(all_oids.size())]);
    const auto a = static_cast<Timestamp>(range.start + rng.NextInt(span));
    mix.windows.push_back(
        {a, static_cast<Timestamp>(a + rng.NextInt(span / 4 + 1))});
    const double x0 = rng.Uniform(box.min_x, box.max_x);
    const double y0 = rng.Uniform(box.min_y, box.max_y);
    const double max_w = (box.max_x - box.min_x) / 4;
    const double max_h = (box.max_y - box.min_y) / 4;
    mix.rects.push_back(Rect{x0, y0, x0 + rng.Uniform(0.0, max_w),
                             y0 + rng.Uniform(0.0, max_h)});
    ConvoyQuery q;
    q.object = mix.oids.back();
    q.time_window = mix.windows.back();
    if (i % 2 == 0) q.region = mix.rects.back();
    mix.conjunctions.push_back(q);
  }
  return mix;
}

/// Runs `queries` rounds of one query type against a pinned snapshot;
/// returns queries/sec. `sink` defeats dead-code elimination.
template <typename Fn>
double Throughput(size_t rounds, size_t per_round, const Fn& fn) {
  Stopwatch sw;
  size_t sink = 0;
  for (size_t r = 0; r < rounds; ++r) sink += fn();
  const double seconds = sw.ElapsedSeconds();
  K2_CHECK(sink != static_cast<size_t>(-1));  // keep `sink` alive
  return static_cast<double>(rounds * per_round) / std::max(seconds, 1e-9);
}

struct SourceResult {
  std::string name;
  double build_seconds = 0.0;
  std::shared_ptr<const CatalogSnapshot> snap;
  const Store* store = nullptr;    ///< the store that fed this catalog
  const ConvoyCatalog* catalog = nullptr;
  /// Mining plus footprint-ingest IO. Parallel miners read through store
  /// snapshots, so the store's own io_stats() does not see their mining.
  IoStats io;
};

}  // namespace

int main(int argc, char** argv) {
  ParseArgs(argc, argv);
  PrintBanner("Serving: ConvoyCatalog query throughput");
  const Dataset& data = Trucks();
  std::cout << data.DebugString() << "\n\n";
  const MiningParams params{3, 200, 30.0};

  // --- build one catalog per miner source --------------------------------
  std::vector<SourceResult> sources;

  // build_seconds is uniformly "raw store -> published catalog": mining
  // plus footprint ingest plus the index build.
  auto batch_store = BuildStore(StoreKind::kMemory, data, "serving_batch");
  ConvoyCatalog batch_catalog;
  {
    SourceResult src;
    src.name = "batch";
    src.store = batch_store.get();
    src.catalog = &batch_catalog;
    Stopwatch sw;
    K2HopStats mine_stats;
    auto batch_mined = MineK2Hop(batch_store.get(), params, {}, &mine_stats);
    K2_CHECK(batch_mined.ok());
    const IoStats before_ingest = batch_store->io_stats();
    K2_CHECK_OK(
        batch_catalog.AddConvoys(batch_mined.value(), batch_store.get()));
    src.io = mine_stats.io;
    src.io.Accumulate(IoStats::Delta(batch_store->io_stats(), before_ingest));
    src.snap = batch_catalog.Publish();
    src.build_seconds = sw.ElapsedSeconds();
    sources.push_back(std::move(src));
  }

  MemoryStore stream_store;
  ConvoyCatalog online_catalog;
  {
    SourceResult src;
    src.name = "online";
    src.store = &stream_store;
    src.catalog = &online_catalog;
    OnlineK2HopOptions options;
    options.on_closed = online_catalog.OnClosedHook(&stream_store, 8);
    OnlineK2HopMiner miner(&stream_store, params, options);
    Stopwatch sw;
    for (Timestamp t : data.timestamps()) {
      K2_CHECK_OK(miner.AppendTick(t, SnapshotPoints(data, t)));
    }
    auto final_result = miner.Finalize();
    K2_CHECK(final_result.ok());
    K2_CHECK_OK(online_catalog.hook_status());
    K2_CHECK_OK(online_catalog.ReplaceAll(final_result.value(), &stream_store));
    src.snap = online_catalog.Publish();
    src.build_seconds = sw.ElapsedSeconds();  // includes mining the stream
    src.io = stream_store.io_stats();
    sources.push_back(std::move(src));
  }

  auto part_store = BuildStore(StoreKind::kMemory, data, "serving_part");
  ConvoyCatalog part_catalog;
  {
    SourceResult src;
    src.name = "partitioned";
    src.store = part_store.get();
    src.catalog = &part_catalog;
    K2HopOptions options;
    options.num_shards = 4;
    Stopwatch sw;
    K2HopStats mine_stats;
    auto mined = MineK2Hop(part_store.get(), params, options, &mine_stats);
    K2_CHECK(mined.ok());
    const IoStats before_ingest = part_store->io_stats();
    K2_CHECK_OK(part_catalog.AddConvoys(mined.value(), part_store.get()));
    src.io = mine_stats.io;
    src.io.Accumulate(IoStats::Delta(part_store->io_stats(), before_ingest));
    src.snap = part_catalog.Publish();
    src.build_seconds = sw.ElapsedSeconds();
    sources.push_back(std::move(src));
  }

  // --- differential probe: the three catalogs must agree -----------------
  const QueryMix mix = MakeMix(data, 64);
  for (const SourceResult& src : sources) {
    K2_CHECK(src.snap->convoys() == sources[0].snap->convoys());
    std::vector<ConvoyId> expected, got;
    for (size_t i = 0; i < mix.oids.size(); ++i) {
      sources[0].snap->ByObject(mix.oids[i], &expected);
      src.snap->ByObject(mix.oids[i], &got);
      K2_CHECK(got == expected);
      sources[0].snap->ByTimeWindow(mix.windows[i], &expected);
      src.snap->ByTimeWindow(mix.windows[i], &got);
      K2_CHECK(got == expected);
      sources[0].snap->ByRegion(mix.rects[i], &expected);
      src.snap->ByRegion(mix.rects[i], &got);
      K2_CHECK(got == expected);
      ConvoyQueryEngine::FindIds(*sources[0].snap, mix.conjunctions[i],
                                 &expected);
      ConvoyQueryEngine::FindIds(*src.snap, mix.conjunctions[i], &got);
      K2_CHECK(got == expected);
    }
  }
  std::cout << "catalogs from batch/online/partitioned answer the probe mix "
               "identically (checked in-process)\n\n";

  // --- throughput ---------------------------------------------------------
  const size_t rounds = 200;
  // Fixed reader count: it is part of the JSON record key (serve-<src>@rN),
  // and keys must be machine-independent for bench_compare.py to match
  // baseline rows across hosts (hardware_concurrency is not).
  const int mt_readers = 4;
  TablePrinter table({"source", "convoys", "fp_points", "build_s", "by_object",
                      "by_window", "by_region", "topk", "conjunction",
                      "mt_mixed"});

  for (const SourceResult& src : sources) {
    const CatalogSnapshot& snap = *src.snap;
    std::vector<ConvoyId> ids;
    const double q_object =
        Throughput(rounds, mix.oids.size(), [&snap, &mix, &ids] {
          size_t sink = 0;
          for (ObjectId oid : mix.oids) {
            snap.ByObject(oid, &ids);
            sink += ids.size();
          }
          return sink;
        });
    const double q_window =
        Throughput(rounds, mix.windows.size(), [&snap, &mix, &ids] {
          size_t sink = 0;
          for (const TimeRange& w : mix.windows) {
            snap.ByTimeWindow(w, &ids);
            sink += ids.size();
          }
          return sink;
        });
    const double q_region =
        Throughput(rounds, mix.rects.size(), [&snap, &mix, &ids] {
          size_t sink = 0;
          for (const Rect& r : mix.rects) {
            snap.ByRegion(r, &ids);
            sink += ids.size();
          }
          return sink;
        });
    const double q_topk = Throughput(rounds, 2, [&snap, &ids] {
      ConvoyQueryEngine::TopKIds(snap, {}, ConvoyRank::kLongest, 10, &ids);
      const size_t sink = ids.size();
      ConvoyQueryEngine::TopKIds(snap, {}, ConvoyRank::kLargest, 10, &ids);
      return sink + ids.size();
    });
    const double q_conj =
        Throughput(rounds, mix.conjunctions.size(), [&snap, &mix, &ids] {
          size_t sink = 0;
          for (const ConvoyQuery& q : mix.conjunctions) {
            ConvoyQueryEngine::FindIds(snap, q, &ids);
            sink += ids.size();
          }
          return sink;
        });

    // Concurrent mixed load: `mt_readers` workers, each pinning the
    // snapshot once and cycling through the whole mix.
    double q_mt = 0.0;
    double mt_seconds = 0.0;
    {
      const ConvoyCatalog* catalog = src.catalog;
      ThreadPool pool(mt_readers);
      std::atomic<uint64_t> total{0};
      Stopwatch sw;
      pool.ParallelFor(static_cast<size_t>(mt_readers), [&](size_t) {
        ConvoyQueryEngine engine(catalog);
        const auto pinned = engine.Pin();
        std::vector<ConvoyId> local_ids;
        uint64_t done = 0;
        for (size_t r = 0; r < rounds / 4; ++r) {
          for (size_t i = 0; i < mix.oids.size(); ++i) {
            pinned->ByObject(mix.oids[i], &local_ids);
            pinned->ByTimeWindow(mix.windows[i], &local_ids);
            pinned->ByRegion(mix.rects[i], &local_ids);
            ConvoyQueryEngine::FindIds(*pinned, mix.conjunctions[i],
                                       &local_ids);
            done += 4;
          }
        }
        total.fetch_add(done, std::memory_order_relaxed);
      });
      mt_seconds = sw.ElapsedSeconds();
      q_mt = static_cast<double>(total.load()) / std::max(mt_seconds, 1e-9);
    }

    table.AddRow({src.name, std::to_string(snap.size()),
                  std::to_string(snap.footprint_points()),
                  Fmt(src.build_seconds), Fmt(q_object / 1e3, 0) + "k/s",
                  Fmt(q_window / 1e3, 0) + "k/s",
                  Fmt(q_region / 1e3, 0) + "k/s",
                  Fmt(q_topk / 1e3, 0) + "k/s", Fmt(q_conj / 1e3, 0) + "k/s",
                  Fmt(q_mt / 1e3, 0) + "k/s"});

    // Two records per source, reader count in the key: "@r1" for the
    // single-reader sweeps and "@r4" for the concurrent mixed load. Without
    // the suffix, rows at different reader counts collide under
    // bench_compare.py's (bench, miner, store, params) keying.
    JsonFields single;
    single.Str("source", src.name)
        .Int("catalog_convoys", snap.size())
        .Int("footprint_points", snap.footprint_points())
        .Int("readers", 1)
        .Num("qps_by_object", q_object)
        .Num("qps_by_window", q_window)
        .Num("qps_by_region", q_region)
        .Num("qps_topk", q_topk)
        .Num("qps_conjunction", q_conj);
    // Each record carries ITS source's store and that store's IO (mining
    // plus footprint ingest), so per-source cost stays attributable.
    RecordMiningRun("serve-" + src.name + "@r1", *src.store, params,
                    src.build_seconds, snap.size(), src.io, single);
    JsonFields multi;
    multi.Str("source", src.name)
        .Int("catalog_convoys", snap.size())
        .Int("readers", static_cast<uint64_t>(mt_readers))
        .Num("qps_mt_mixed", q_mt);
    RecordMiningRun("serve-" + src.name + "@r" + std::to_string(mt_readers),
                    *src.store, params, mt_seconds, snap.size(), src.io,
                    multi);
  }
  table.Print();
  std::cout << "\nqueries/sec per type against the published snapshot "
               "(by_object/by_window/by_region/topk/conjunction single "
               "reader, mt_mixed = " << mt_readers
            << " concurrent readers on pinned snapshots); build_s for "
               "'online' includes mining the whole stream.\n";
  return 0;
}
