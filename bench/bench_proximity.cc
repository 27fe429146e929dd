// Coordinate-free convoy mining benchmark: a planted proximity log (pair
// observations only, no positions) is bridged into a presence store and
// mined through the co-location graph clusterer — batch, online, and
// partitioned. The three convoy sets are differential-checked in-process,
// so the bench doubles as an end-to-end smoke of the pluggable clustering
// substrate; the rows feed the same JSON snapshot / drift gate as the
// geometric benches.
#include "bench/harness.h"

#include <filesystem>

#include "cluster/graph_clusterer.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/online.h"
#include "core/k2hop.h"
#include "gen/proximity_gen.h"
#include "model/proximity.h"
#include "storage/lsm_store.h"

using namespace k2;
using namespace k2::bench;

namespace {

/// Planted proximity workload at bench scale: a few long-lived cliques in a
/// sea of noisy pair sightings. Deterministic per scale.
ProximityLog MakeLog() {
  const double scale = ScaleFactor();
  PlantedProximitySpec spec;
  spec.num_noise_objects = static_cast<int>(220 * scale);
  spec.num_ticks = static_cast<int>(360 * scale);
  spec.noise_pair_prob = 0.004;
  spec.seed = 7;
  const Timestamp last = spec.num_ticks - 1;
  spec.groups = {{5, 10, last - 20},
                 {4, 0, last / 2},
                 {6, last / 3, last},
                 {3, last / 4, 3 * last / 4}};
  return GeneratePlantedProximity(spec);
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = "/tmp/k2hop_bench/stores/proximity_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

int main(int argc, char** argv) {
  ParseArgs(argc, argv);
  PrintBanner("Proximity: coordinate-free mining via co-location graphs");
  const ProximityLog log = MakeLog();
  const Dataset presence = log.PresenceDataset();
  std::cout << "proximity log: " << log.num_pairs() << " pairs, "
            << log.num_objects() << " objects, "
            << log.timestamps().size() << " ticks ("
            << presence.num_points() << " presence rows)\n\n";

  const CoLocationGraphClusterer colocation(&log);
  MiningParams params{3, 12, /*eps=*/0.0};
  params.clusterer = &colocation;

  TablePrinter table({"store", "miner", "wall_s", "convoys"});
  std::vector<Convoy> batch_convoys;
  for (StoreKind kind : {StoreKind::kMemory, StoreKind::kLsm}) {
    auto store = BuildStore(kind, presence, "proximity");

    K2HopStats stats;
    Stopwatch sw;
    auto batch = MineK2Hop(store.get(), params, {}, &stats);
    const double batch_seconds = sw.ElapsedSeconds();
    K2_CHECK(batch.ok());
    if (batch_convoys.empty()) {
      batch_convoys = batch.value();
    } else {
      K2_CHECK(batch.value() == batch_convoys);  // engines agree
    }
    RecordMiningRun("k2hop-prox", *store, params, batch_seconds,
                    batch.value().size(), stats.io);
    table.AddRow({StoreKindName(kind), "k2hop-prox", Fmt(batch_seconds),
                  std::to_string(batch.value().size())});

    // Fixed shard and thread counts keep the row independent of the host:
    // each shard boundary re-clusters one benchmark, and the default thread
    // count would run this small store sequentially.
    K2HopStats part_stats;
    Stopwatch part_sw;
    auto partitioned = MineK2Hop(
        store.get(), params, {.num_threads = 4, .num_shards = 4}, &part_stats);
    const double part_seconds = part_sw.ElapsedSeconds();
    K2_CHECK(partitioned.ok());
    K2_CHECK(partitioned.value() == batch_convoys);
    RecordMiningRun("k2hop-prox-partitioned", *store, params, part_seconds,
                    partitioned.value().size(), part_stats.io);
    table.AddRow({StoreKindName(kind), "k2hop-prox-partitioned",
                  Fmt(part_seconds), std::to_string(partitioned.value().size())});
  }

  // Online: stream the presence rows tick by tick into an empty LSM store.
  {
    LsmStoreOptions options;
    options.wal_sync_every_append = false;
    LsmStore store(FreshDir("lsmt_online") + "/lsm", options);
    OnlineK2HopMiner miner(&store, params);
    Stopwatch sw;
    for (Timestamp t : presence.timestamps()) {
      K2_CHECK_OK(miner.AppendTick(t, SnapshotPoints(presence, t)));
    }
    auto online = miner.Finalize();
    const double online_seconds = sw.ElapsedSeconds();
    K2_CHECK(online.ok());
    K2_CHECK(online.value() == batch_convoys);
    RecordMiningRun("k2hop-prox-online", store, params, online_seconds,
                    online.value().size(), miner.stats().mining_io);
    table.AddRow({store.name(), "k2hop-prox-online", Fmt(online_seconds),
                  std::to_string(online.value().size())});
  }

  table.Print();
  std::cout << "\nbatch == partitioned == online convoy sets (checked "
               "in-process); the clusterer never sees a coordinate.\n";
  return 0;
}
