// Shared helpers for the test suite: compact dataset construction, miner
// wrappers that CHECK on status, and canonical convoy comparison.
#ifndef K2_TESTS_TEST_UTIL_H_
#define K2_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/clusterer.h"
#include "common/check.h"
#include "common/convoy.h"
#include "common/types.h"
#include "model/dataset.h"
#include "storage/memory_store.h"
#include "storage/store.h"

namespace k2::testing {

/// Builds a dataset from (t, oid, x, y) tuples.
inline Dataset MakeDataset(
    const std::vector<std::tuple<Timestamp, ObjectId, double, double>>& rows) {
  DatasetBuilder builder;
  for (const auto& [t, oid, x, y] : rows) builder.Add(t, oid, x, y);
  return builder.Build();
}

/// 1-D layout helper: objects move along the x axis only; `tracks[oid]` is
/// the per-tick x position (y = 0). All tracks must have equal length.
/// Position kGone means "absent at this tick".
inline constexpr double kGone = 1e18;
inline Dataset MakeTracks(const std::vector<std::vector<double>>& tracks) {
  DatasetBuilder builder;
  for (ObjectId oid = 0; oid < tracks.size(); ++oid) {
    for (size_t t = 0; t < tracks[oid].size(); ++t) {
      if (tracks[oid][t] == kGone) continue;
      builder.Add(static_cast<Timestamp>(t), oid, tracks[oid][t], 0.0);
    }
  }
  return builder.Build();
}

/// Convenience convoy literal.
inline Convoy C(std::initializer_list<ObjectId> ids, Timestamp s,
                Timestamp e) {
  return Convoy(ObjectSet(std::vector<ObjectId>(ids)), s, e);
}

/// Canonical string form of a convoy list for readable failure messages.
inline std::string Str(const std::vector<Convoy>& convoys) {
  std::vector<Convoy> sorted = convoys;
  SortConvoys(&sorted);
  std::string out;
  for (const Convoy& v : sorted) out += v.DebugString() + "\n";
  return out;
}

#define EXPECT_SAME_CONVOYS(a, b) EXPECT_EQ(::k2::testing::Str(a), ::k2::testing::Str(b))

/// Fresh, empty directory `<base>/k2hop_test_<pid>/<suite>.<test>.<tag>`
/// for the running test. ctest runs every case in its own process, and
/// concurrently under -j: the test name and the pid keep those processes
/// from sharing, or wiping, each other's files. Every per-process root is
/// removed when the process exits.
inline std::string FreshTestDir(const std::filesystem::path& base,
                                const std::string& tag) {
  namespace fs = std::filesystem;
  struct Roots {
    std::vector<fs::path> paths;
    ~Roots() {
      std::error_code ec;
      for (const fs::path& root : paths) fs::remove_all(root, ec);
    }
  };
  static Roots roots;
  const fs::path root = base / ("k2hop_test_" + std::to_string(::getpid()));
  if (std::find(roots.paths.begin(), roots.paths.end(), root) ==
      roots.paths.end()) {
    roots.paths.push_back(root);
  }
  std::string name = tag;
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name = std::string(info->test_suite_name()) + "." + info->name() + "." +
           tag;
  }
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  const fs::path dir = root / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Fresh scratch directory for disk-backed stores (see FreshTestDir).
inline std::string ScratchDir(const std::string& tag) {
  return FreshTestDir(std::filesystem::temp_directory_path(), tag);
}

/// Loads `dataset` into a MemoryStore.
inline std::unique_ptr<MemoryStore> MakeMemStore(const Dataset& dataset) {
  auto store = std::make_unique<MemoryStore>();
  K2_CHECK_OK(store->BulkLoad(dataset));
  return store;
}

// A memory store that records the tick and size of every GetPoints call.
class FetchCountingStore final : public Store {
 public:
  explicit FetchCountingStore(Dataset dataset) : inner_(std::move(dataset)) {}
  std::string name() const override { return "fetch-counting"; }
  Status BulkLoad(const Dataset& dataset) override {
    return inner_.BulkLoad(dataset);
  }
  Status ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) override {
    Status status = inner_.ScanTimestamp(t, out);
    io_stats_ = inner_.io_stats();
    return status;
  }
  Status GetPoints(Timestamp t, const ObjectSet& objects,
                   std::vector<SnapshotPoint>* out) override {
    fetches.emplace_back(t, objects.size());
    Status status = inner_.GetPoints(t, objects, out);
    io_stats_ = inner_.io_stats();
    return status;
  }
  TimeRange time_range() const override { return inner_.time_range(); }
  const std::vector<Timestamp>& timestamps() const override {
    return inner_.timestamps();
  }
  uint64_t num_points() const override { return inner_.num_points(); }

  std::vector<std::pair<Timestamp, size_t>> fetches;

 private:
  MemoryStore inner_;
};

// The default clusterer, recording every ReCluster call (one thread only).
class RecordingClusterer final : public SnapshotClusterer {
 public:
  std::string name() const override { return "recording"; }
  Status ValidateParams(const MiningParams& params) const override {
    return DefaultClusterer()->ValidateParams(params);
  }
  Result<std::vector<ObjectSet>> Cluster(
      Store* store, Timestamp t, const MiningParams& params,
      SnapshotScratch* scratch, Mutex* store_mu = nullptr) const override {
    return DefaultClusterer()->Cluster(store, t, params, scratch, store_mu);
  }
  Result<std::vector<ObjectSet>> ReCluster(
      Store* store, Timestamp t, const ObjectSet& objects,
      const MiningParams& params, SnapshotScratch* scratch,
      Mutex* store_mu = nullptr) const override {
    calls.emplace_back(t, objects);
    return DefaultClusterer()->ReCluster(store, t, objects, params, scratch,
                                         store_mu);
  }

  mutable std::vector<std::pair<Timestamp, ObjectSet>> calls;
};

}  // namespace k2::testing

#endif  // K2_TESTS_TEST_UTIL_H_
