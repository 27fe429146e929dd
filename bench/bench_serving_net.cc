// Network-serving benchmark: stands up a real in-process k2_server (epoll +
// SO_REUSEPORT workers), streams the Trucks workload through kIngest over
// one connection, then measures the wire query path with 64 concurrent
// client connections:
//
//  * latency phase — every connection issues blocking round-trip queries
//    (object/window/region/conjunction/topk mix); reports p50/p99/p999 of
//    the per-request round-trip time, the numbers the drift gate watches;
//  * saturation phase — every connection pipelines batches of requests
//    (depth 64) as fast as the server answers, reporting aggregate
//    queries/sec at full load.
//
// Records are keyed machine-independently (serve-net-lat@c64 /
// serve-net-sat@c64 — the connection count is fixed, never derived from
// hardware_concurrency).
#include "bench/harness.h"
#include "bench/query_mix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/stopwatch.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "serve/query.h"

using namespace k2;
using namespace k2::bench;

namespace {

constexpr int kConnections = 64;   ///< part of the record key, keep fixed
constexpr int kPipelineDepth = 64;
constexpr int kLatencyRoundsPerConn = 300;
constexpr int kSaturationBatchesPerConn = 40;

/// The i-th request of a connection's deterministic query schedule.
ConvoyQuery MixQuery(const QueryMix& mix, size_t i) {
  const size_t slot = i % mix.oids.size();
  ConvoyQuery q;
  switch (i % 4) {
    case 0:
      q.object = mix.oids[slot];
      break;
    case 1:
      q.time_window = mix.windows[slot];
      break;
    case 2:
      q.region = mix.rects[slot];
      break;
    default:
      q = mix.conjunctions[slot];
      break;
  }
  return q;
}

double Percentile(std::vector<double>* sorted_in_place, double p) {
  std::vector<double>& v = *sorted_in_place;
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

}  // namespace

int main(int argc, char** argv) {
  ParseArgs(argc, argv);
  PrintBanner("Serving over the wire: k2_server latency and saturation qps");
  const Dataset& data = Trucks();
  std::cout << data.DebugString() << "\n\n";
  // Smaller k than the in-process serving bench: the wire path has no
  // Finalize endpoint, so the catalog holds eagerly closed convoys — k/2
  // must fit inside the stream many times over for the catalog to fill.
  const MiningParams params{3, 30, 30.0};

  net::K2ServerOptions options;
  options.port = 0;
  options.params = params;
  options.publish_every = 64;
  auto started = net::K2Server::Start(options);
  K2_CHECK(started.ok());
  net::K2Server& server = *started.value();

  // --- ingest the whole stream over one connection ------------------------
  double ingest_seconds = 0.0;
  uint64_t catalog_convoys = 0;
  {
    auto feeder = net::K2Client::Connect({"127.0.0.1", server.port()});
    K2_CHECK(feeder.ok());
    Stopwatch sw;
    for (Timestamp t : data.timestamps()) {
      auto ack = feeder.value()->Ingest(t, SnapshotPoints(data, t));
      K2_CHECK(ack.ok());
    }
    auto published = feeder.value()->Publish();
    K2_CHECK(published.ok());
    ingest_seconds = sw.ElapsedSeconds();
    catalog_convoys = published.value().convoys;
  }
  std::cout << "ingested " << data.timestamps().size()
            << " ticks over the wire in " << Fmt(ingest_seconds)
            << "s; catalog holds " << catalog_convoys
            << " eagerly closed convoys\n\n";
  K2_CHECK(catalog_convoys > 0);

  const QueryMix mix = MakeQueryMix(data, 64);

  // --- latency phase: blocking round trips on 64 connections --------------
  std::vector<double> latencies_ms;
  double latency_seconds = 0.0;
  {
    Mutex mu;
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    Stopwatch sw;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        auto client = net::K2Client::Connect({"127.0.0.1", server.port()});
        if (!client.ok()) {
          failed.store(true);
          return;
        }
        std::vector<double> local;
        local.reserve(kLatencyRoundsPerConn);
        for (int i = 0; i < kLatencyRoundsPerConn; ++i) {
          const ConvoyQuery q =
              MixQuery(mix, static_cast<size_t>(c) * 7919 + i);
          Stopwatch rt;
          const bool ok = (i % 16 == 15)
                              ? client.value()
                                    ->TopK(q, ConvoyRank::kLongest, 10)
                                    .ok()
                              : client.value()->Query(q).ok();
          if (!ok) {
            failed.store(true);
            return;
          }
          local.push_back(rt.ElapsedMillis());
        }
        MutexLock lock(mu);
        latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
      });
    }
    for (std::thread& t : threads) t.join();
    latency_seconds = sw.ElapsedSeconds();
    K2_CHECK(!failed.load());
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double p50 = Percentile(&latencies_ms, 50);
  const double p99 = Percentile(&latencies_ms, 99);
  const double p999 = Percentile(&latencies_ms, 99.9);
  const double rt_qps =
      static_cast<double>(latencies_ms.size()) / std::max(latency_seconds, 1e-9);

  // --- saturation phase: pipelined batches on 64 connections --------------
  double saturation_seconds = 0.0;
  uint64_t saturation_replies = 0;
  {
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    std::atomic<uint64_t> replies{0};
    Stopwatch sw;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        auto client = net::K2Client::Connect({"127.0.0.1", server.port()});
        if (!client.ok()) {
          failed.store(true);
          return;
        }
        uint64_t done = 0;
        for (int b = 0; b < kSaturationBatchesPerConn; ++b) {
          for (int i = 0; i < kPipelineDepth; ++i) {
            client.value()->SendQuery(
                MixQuery(mix, static_cast<size_t>(c) * 104729 +
                                  static_cast<size_t>(b) * kPipelineDepth + i));
          }
          if (!client.value()->Flush().ok()) {
            failed.store(true);
            return;
          }
          for (int i = 0; i < kPipelineDepth; ++i) {
            if (!client.value()->Receive().ok()) {
              failed.store(true);
              return;
            }
            ++done;
          }
        }
        replies.fetch_add(done, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : threads) t.join();
    saturation_seconds = sw.ElapsedSeconds();
    K2_CHECK(!failed.load());
    saturation_replies = replies.load();
  }
  const double sat_qps =
      static_cast<double>(saturation_replies) /
      std::max(saturation_seconds, 1e-9);

  server.RequestShutdown();
  server.Wait();
  K2_CHECK(server.serving_status().ok());

  TablePrinter table({"phase", "conns", "requests", "wall_s", "qps",
                      "p50_ms", "p99_ms", "p999_ms"});
  table.AddRow({"round-trip", std::to_string(kConnections),
                std::to_string(latencies_ms.size()), Fmt(latency_seconds),
                Fmt(rt_qps / 1e3, 0) + "k/s", Fmt(p50), Fmt(p99), Fmt(p999)});
  table.AddRow({"pipelined", std::to_string(kConnections),
                std::to_string(saturation_replies), Fmt(saturation_seconds),
                Fmt(sat_qps / 1e3, 0) + "k/s", "-", "-", "-"});
  table.Print();
  std::cout << "\nround-trip = blocking request/reply per connection "
               "(latency-bound); pipelined = depth-" << kPipelineDepth
            << " batches per connection (throughput-bound); all answers "
               "served lock-free off pinned snapshots by "
            << server.num_workers() << " epoll workers.\n";

  // Connection count lives in the record key: rows at different
  // concurrency levels must never collide under the drift gate's keying.
  JsonFields latency_extra;
  latency_extra.Int("connections", kConnections)
      .Int("catalog_convoys", catalog_convoys)
      .Num("qps_roundtrip", rt_qps)
      .Num("rt_ms_p50", p50)
      .Num("rt_ms_p99", p99)
      .Num("rt_ms_p999", p999);
  RecordBenchRow("serve-net-lat@c" + std::to_string(kConnections), "memory",
                 params, latency_seconds, catalog_convoys, IoStats{},
                 latency_extra);
  JsonFields saturation_extra;
  saturation_extra.Int("connections", kConnections)
      .Int("pipeline_depth", kPipelineDepth)
      .Int("catalog_convoys", catalog_convoys)
      .Num("qps_saturation", sat_qps);
  RecordBenchRow("serve-net-sat@c" + std::to_string(kConnections), "memory",
                 params, saturation_seconds, catalog_convoys, IoStats{},
                 saturation_extra);
  return 0;
}
