#include "storage/store.h"

#include <cmath>
#include <filesystem>
#include <sstream>

#include "storage/bptree_store.h"
#include "storage/file_store.h"
#include "storage/lsm_store.h"
#include "storage/memory_store.h"

namespace k2 {

namespace {

// out[i] op= in[i] with the shorter vector padded with zeros: per-tier
// counters from stores of different depths must stay comparable.
template <typename Op>
void ZipTiers(std::vector<uint64_t>* out, const std::vector<uint64_t>& in,
              Op op) {
  if (out->size() < in.size()) out->resize(in.size(), 0);
  for (size_t i = 0; i < in.size(); ++i) (*out)[i] = op((*out)[i], in[i]);
}

void AppendTierVector(std::ostringstream& os, const char* label,
                      const std::vector<uint64_t>& v) {
  os << ", " << label << "=[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ", ";
    os << v[i];
  }
  os << "]";
}

}  // namespace

std::string IoStats::DebugString() const {
  std::ostringstream os;
  os << "IoStats{scans=" << snapshot_scans
     << ", scanned_points=" << scanned_points
     << ", point_fetches=" << point_fetches
     << ", point_queries=" << point_queries << ", point_hits=" << point_hits
     << ", bytes_read=" << bytes_read << ", seeks=" << seeks
     << ", pages_read=" << pages_read << ", pages_cached=" << pages_cached
     << ", bloom_negative=" << bloom_negative
     << ", sstables_touched=" << sstables_touched;
  if (!tier_sstables_touched.empty()) {
    AppendTierVector(os, "tier_touched", tier_sstables_touched);
  }
  if (!tier_bloom_skipped.empty()) {
    AppendTierVector(os, "tier_bloom_skipped", tier_bloom_skipped);
  }
  os << "}";
  return os.str();
}

IoStats IoStats::Delta(const IoStats& after, const IoStats& before) {
  IoStats d;
  d.snapshot_scans = after.snapshot_scans - before.snapshot_scans;
  d.scanned_points = after.scanned_points - before.scanned_points;
  d.point_fetches = after.point_fetches - before.point_fetches;
  d.point_queries = after.point_queries - before.point_queries;
  d.point_hits = after.point_hits - before.point_hits;
  d.bytes_read = after.bytes_read - before.bytes_read;
  d.seeks = after.seeks - before.seeks;
  d.pages_read = after.pages_read - before.pages_read;
  d.pages_cached = after.pages_cached - before.pages_cached;
  d.bloom_negative = after.bloom_negative - before.bloom_negative;
  d.sstables_touched = after.sstables_touched - before.sstables_touched;
  d.tier_sstables_touched = after.tier_sstables_touched;
  ZipTiers(&d.tier_sstables_touched, before.tier_sstables_touched,
           [](uint64_t a, uint64_t b) { return a - b; });
  d.tier_bloom_skipped = after.tier_bloom_skipped;
  ZipTiers(&d.tier_bloom_skipped, before.tier_bloom_skipped,
           [](uint64_t a, uint64_t b) { return a - b; });
  return d;
}

void IoStats::Accumulate(const IoStats& other) {
  snapshot_scans += other.snapshot_scans;
  scanned_points += other.scanned_points;
  point_fetches += other.point_fetches;
  point_queries += other.point_queries;
  point_hits += other.point_hits;
  bytes_read += other.bytes_read;
  seeks += other.seeks;
  pages_read += other.pages_read;
  pages_cached += other.pages_cached;
  bloom_negative += other.bloom_negative;
  sstables_touched += other.sstables_touched;
  ZipTiers(&tier_sstables_touched, other.tier_sstables_touched,
           [](uint64_t a, uint64_t b) { return a + b; });
  ZipTiers(&tier_bloom_skipped, other.tier_bloom_skipped,
           [](uint64_t a, uint64_t b) { return a + b; });
}

double PruningRatio(const IoStats& io, uint64_t total_points) {
  if (total_points == 0) return 0.0;
  const double processed = static_cast<double>(io.points_read());
  return processed >= static_cast<double>(total_points)
             ? 0.0
             : 1.0 - processed / static_cast<double>(total_points);
}

Status Store::Append(Timestamp t, const std::vector<SnapshotPoint>& points) {
  (void)t;
  (void)points;
  return Status::NotImplemented("Append is not supported by " + name());
}

Result<std::unique_ptr<Store>> Store::CreateReadSnapshot() {
  return Status::Invalid("the " + name() +
                         " store does not support read snapshots");
}

Status Store::CheckAppend(Timestamp t,
                          const std::vector<SnapshotPoint>& points) const {
  if (num_points() > 0 && t <= time_range().end) {
    return Status::Invalid("Append tick " + std::to_string(t) +
                           " is not past the stored range end " +
                           std::to_string(time_range().end));
  }
  for (size_t i = 0; i < points.size(); ++i) {
    if (i > 0 && points[i].oid <= points[i - 1].oid) {
      return Status::Invalid(
          "Append points must be sorted by oid and duplicate-free");
    }
    if (!std::isfinite(points[i].x) || !std::isfinite(points[i].y)) {
      return Status::Invalid("Append oid " + std::to_string(points[i].oid) +
                             " has a non-finite coordinate");
    }
  }
  return Status::OK();
}

const char* StoreKindName(StoreKind kind) {
  switch (kind) {
    case StoreKind::kMemory:
      return "memory";
    case StoreKind::kFile:
      return "file";
    case StoreKind::kBPlusTree:
      return "rdbms";
    case StoreKind::kLsm:
      return "lsmt";
  }
  return "unknown";
}

Result<std::unique_ptr<Store>> CreateStore(StoreKind kind,
                                           const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec && kind != StoreKind::kMemory) {
    return Status::IOError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  switch (kind) {
    case StoreKind::kMemory:
      return std::unique_ptr<Store>(new MemoryStore());
    case StoreKind::kFile:
      return std::unique_ptr<Store>(new FileStore(dir + "/data.bin"));
    case StoreKind::kBPlusTree:
      return std::unique_ptr<Store>(new BPlusTreeStore(dir + "/tree.db"));
    case StoreKind::kLsm:
      return std::unique_ptr<Store>(new LsmStore(dir + "/lsm"));
  }
  return Status::Invalid("unknown store kind");
}

}  // namespace k2
