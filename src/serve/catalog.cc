#include "serve/catalog.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <thread>
#include <utility>

namespace k2 {
namespace detail {

// Invariant (analysis off): the ingress bump + active_ re-check guarantee
// the writer cannot begin overwriting slot s before our egress bump — the
// copy of `snap` below races with nothing. This function and Store() are
// the only two accessors the Slot capability admits; see the class comment.
std::shared_ptr<const CatalogSnapshot> SnapshotCell::Load() const
    K2_NO_THREAD_SAFETY_ANALYSIS {
  for (;;) {
    const int s = active_.load(std::memory_order_seq_cst);
    slots_[s].ingress.fetch_add(1, std::memory_order_seq_cst);
    if (active_.load(std::memory_order_seq_cst) == s) {
      // The re-check read the toggle that made slot s active (or a later
      // state in which s still is): the writer's last write to this slot
      // happens-before the toggle, so the copy below is race-free — and the
      // writer cannot start overwriting s again before our egress bump.
      std::shared_ptr<const CatalogSnapshot> snap = slots_[s].snap;
      slots_[s].egress.fetch_add(1, std::memory_order_seq_cst);
      return snap;
    }
    // Writer toggled between our two loads: back out and re-enter.
    slots_[s].egress.fetch_add(1, std::memory_order_seq_cst);
  }
}

// Invariant (analysis off): K2_REQUIRES(writer_mu) makes us the only
// writer, and the ingress/egress drain loop below orders every reader's
// copy of the retired slot strictly before the overwrite — the write to
// `snap` races with nothing.
void SnapshotCell::Store(std::shared_ptr<const CatalogSnapshot> next,
                         const Mutex& /*writer_mu: capability token only*/)
    K2_NO_THREAD_SAFETY_ANALYSIS {
  const int retired = 1 - active_.load(std::memory_order_relaxed);
  // Wait out readers still inside the retired slot (they entered before the
  // previous toggle; each only holds the slot for one pointer copy). Their
  // egress increments synchronize-with these loads, ordering every such
  // copy strictly before the overwrite below.
  while (slots_[retired].ingress.load(std::memory_order_seq_cst) !=
         slots_[retired].egress.load(std::memory_order_seq_cst)) {
    std::this_thread::yield();
  }
  slots_[retired].snap = std::move(next);
  active_.store(retired, std::memory_order_seq_cst);
}

}  // namespace detail

namespace {

// The bounding box of `points`; an empty Rect when there are none.
Rect BoundingBox(std::span<const FootprintPoint> points) {
  if (points.empty()) return Rect{};
  Rect box{points[0].x, points[0].y, points[0].x, points[0].y};
  for (const FootprintPoint& p : points.subspan(1)) {
    box.min_x = std::min(box.min_x, p.x);
    box.min_y = std::min(box.min_y, p.y);
    box.max_x = std::max(box.max_x, p.x);
    box.max_y = std::max(box.max_y, p.y);
  }
  return box;
}

// Chunk `c` of `points`: points [c * kChunk, (c + 1) * kChunk), fewer in
// the last chunk.
std::span<const FootprintPoint> Chunk(std::span<const FootprintPoint> points,
                                      size_t c) {
  const size_t at = c * CatalogEntry::kChunk;
  return points.subspan(at,
                        std::min(CatalogEntry::kChunk, points.size() - at));
}

// A convoy's entry: the convoy, its members' positions at every tick of its
// lifespan in read order, and their chunk and whole bounding boxes. The
// tick counter is 64-bit so that a lifespan ending at the largest Timestamp
// terminates.
Result<std::shared_ptr<const CatalogEntry>> BuildEntry(const Convoy& convoy,
                                                       Store* store) {
  auto entry = std::make_shared<CatalogEntry>();
  entry->convoy = convoy;
  std::vector<FootprintPoint>& points = entry->points;
  std::vector<SnapshotPoint> buf;
  for (int64_t t = convoy.start; t <= convoy.end; ++t) {
    K2_RETURN_NOT_OK(
        store->GetPoints(static_cast<Timestamp>(t), convoy.objects, &buf));
    // A NaN coordinate is inside no rect and would poison the boxes.
    for (const SnapshotPoint& p : buf) {
      if (!std::isnan(p.x) && !std::isnan(p.y)) points.push_back({p.x, p.y});
    }
  }
  for (size_t c = 0; c * CatalogEntry::kChunk < points.size(); ++c) {
    entry->chunk_boxes.push_back(BoundingBox(Chunk(points, c)));
  }
  entry->box = BoundingBox(points);
  return std::shared_ptr<const CatalogEntry>(std::move(entry));
}

// True when no point of `box` (an empty box has none) can lie in `region`.
bool Misses(const Rect& box, const Rect& region) {
  return box.empty() || box.max_x < region.min_x ||
         box.min_x > region.max_x || box.max_y < region.min_y ||
         box.min_y > region.max_y;
}

// True when every point of the non-empty `box` lies in `region`.
bool Inside(const Rect& box, const Rect& region) {
  return region.Contains(box.min_x, box.min_y) &&
         region.Contains(box.max_x, box.max_y);
}

// Writes the ids of `old` renumbered by `remap`, merged with `fresh`, to
// `out` and returns the end of what it wrote. Both inputs are in the order
// `before`, which the remap keeps among old ids, so this is one pass that
// compares only while placing each fresh id, by binary search.
template <typename Before>
ConvoyId* MergeRemapped(std::span<const ConvoyId> old,
                        const std::vector<ConvoyId>& remap,
                        std::span<const ConvoyId> fresh, Before before,
                        ConvoyId* out) {
  auto next = old.begin();
  for (const ConvoyId f : fresh) {
    const auto to = std::partition_point(
        next, old.end(), [&](ConvoyId id) { return before(remap[id], f); });
    for (; next != to; ++next) *out++ = remap[*next];
    *out++ = f;
  }
  for (; next != old.end(); ++next) *out++ = remap[*next];
  return out;
}

}  // namespace

std::vector<Convoy> CatalogSnapshot::convoys() const {
  std::vector<Convoy> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry->convoy);
  return out;
}

size_t CatalogSnapshot::LowerBound(const Convoy& convoy) const {
  return static_cast<size_t>(
      std::lower_bound(entries_.begin(), entries_.end(), convoy,
                       [](const std::shared_ptr<const CatalogEntry>& entry,
                          const Convoy& c) { return entry->convoy < c; }) -
      entries_.begin());
}

void CatalogSnapshot::ByObject(ObjectId oid, std::vector<ConvoyId>* out) const {
  out->clear();
  const auto it = std::lower_bound(obj_oids_.begin(), obj_oids_.end(), oid);
  if (it == obj_oids_.end() || *it != oid) return;
  const std::span<const ConvoyId> run =
      Postings(static_cast<size_t>(it - obj_oids_.begin()));
  out->assign(run.begin(), run.end());
}

std::span<const ConvoyId> CatalogSnapshot::Postings(size_t i) const {
  return std::span<const ConvoyId>(obj_postings_)
      .subspan(obj_starts_[i], obj_starts_[i + 1] - obj_starts_[i]);
}

void CatalogSnapshot::ByTimeWindow(TimeRange window,
                                   std::vector<ConvoyId>* out) const {
  out->clear();
  if (starts_.empty() || window.empty()) return;
  // Overlap = start <= window.end AND end >= window.start. Ids are
  // start-sorted, so the first conjunct is a prefix cut; the segment tree
  // reports the second inside that prefix in ascending id order.
  const size_t limit = static_cast<size_t>(
      std::upper_bound(starts_.begin(), starts_.end(), window.end) -
      starts_.begin());
  if (limit == 0) return;
  ReportOverlaps(1, 0, seg_size_, window.start, limit, out);
}

void CatalogSnapshot::ReportOverlaps(size_t node, size_t lo, size_t hi,
                                     Timestamp min_end, size_t limit,
                                     std::vector<ConvoyId>* out) const {
  if (lo >= limit || seg_max_end_[node] < min_end) return;
  if (hi - lo == 1) {
    if (lo < starts_.size()) out->push_back(static_cast<ConvoyId>(lo));
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  ReportOverlaps(2 * node, lo, mid, min_end, limit, out);
  ReportOverlaps(2 * node + 1, mid, hi, min_end, limit, out);
}

void CatalogSnapshot::ByRegion(const Rect& region,
                               std::vector<ConvoyId>* out) const {
  out->clear();
  if (region.empty()) return;
  for (ConvoyId id = 0; id < boxes_.size(); ++id) {
    if (InRegion(id, region)) out->push_back(id);
  }
}

bool CatalogSnapshot::InRegion(ConvoyId id, const Rect& region) const {
  // A box that misses the rect (or is empty) is a miss, one inside it a
  // hit; a straddling box asks its chunks the same two questions, and
  // scans the points of a chunk that straddles too.
  if (Misses(boxes_[id], region)) return false;
  if (Inside(boxes_[id], region)) return true;
  const CatalogEntry& entry = *entries_[id];
  for (size_t c = 0; c < entry.chunk_boxes.size(); ++c) {
    const Rect& chunk = entry.chunk_boxes[c];
    if (Misses(chunk, region)) continue;
    if (Inside(chunk, region)) return true;
    for (const FootprintPoint& p : Chunk(entry.points, c)) {
      if (region.Contains(p.x, p.y)) return true;
    }
  }
  return false;
}

bool CatalogSnapshot::RankBefore(ConvoyRank rank, ConvoyId a,
                                 ConvoyId b) const {
  if (rank == ConvoyRank::kLongest) {
    const int64_t la = convoy(a).length(), lb = convoy(b).length();
    if (la != lb) return la > lb;
  } else {
    const size_t sa = convoy(a).objects.size(), sb = convoy(b).objects.size();
    if (sa != sb) return sa > sb;
  }
  return a < b;
}

ConvoyCatalog::ConvoyCatalog() {
  // Epoch 0: an empty snapshot, so snapshot() is never null. No other
  // thread can exist yet, but Store demands the writer capability.
  MutexLock lock(writer_mu_);
  base_.reset(new CatalogSnapshot());
  snapshot_.Store(base_, writer_mu_);
}

Status ConvoyCatalog::AddConvoys(std::span<const Convoy> convoys,
                                 Store* store) {
  MutexLock lock(writer_mu_);
  for (const Convoy& convoy : convoys) {
    K2_RETURN_NOT_OK(AddLocked(convoy, store));
  }
  return Status::OK();
}

Status ConvoyCatalog::AddConvoy(const Convoy& convoy, Store* store) {
  MutexLock lock(writer_mu_);
  return AddLocked(convoy, store);
}

Status ConvoyCatalog::AddLocked(const Convoy& convoy, Store* store) {
  if (FindLocked(convoy)) return Status::OK();
  K2_ASSIGN_OR_RETURN(auto entry, BuildEntry(convoy, store));
  added_.emplace(convoy, std::move(entry));
  return Status::OK();
}

std::shared_ptr<const CatalogEntry> ConvoyCatalog::FindLocked(
    const Convoy& convoy) const {
  const size_t at = base_->LowerBound(convoy);
  if (at < base_->size() && base_->convoy(at) == convoy) {
    return base_->entries_[at];
  }
  const auto added = added_.find(convoy);
  return added == added_.end() ? nullptr : added->second;
}

Status ConvoyCatalog::ReplaceAll(std::span<const Convoy> convoys,
                                 Store* store) {
  MutexLock lock(writer_mu_);
  // Build the replacement aside (sharing known entries) so an error
  // mid-way leaves the current content untouched.
  std::map<Convoy, std::shared_ptr<const CatalogEntry>> next;
  for (const Convoy& convoy : convoys) {
    if (next.contains(convoy)) continue;
    std::shared_ptr<const CatalogEntry> entry = FindLocked(convoy);
    if (!entry) {
      K2_ASSIGN_OR_RETURN(entry, BuildEntry(convoy, store));
    }
    next.emplace(convoy, std::move(entry));
  }
  base_.reset(new CatalogSnapshot());
  added_ = std::move(next);
  return Status::OK();
}

std::shared_ptr<const CatalogSnapshot> ConvoyCatalog::Publish() {
  MutexLock lock(writer_mu_);
  return PublishLocked();
}

std::shared_ptr<const CatalogSnapshot> ConvoyCatalog::PublishLocked() {
  const CatalogSnapshot& old = *base_;
  std::shared_ptr<CatalogSnapshot> snap(new CatalogSnapshot());
  snap->epoch_ = ++epoch_;
  const size_t n = old.size() + added_.size();
  snap->entries_.reserve(n);
  snap->boxes_.reserve(n);
  snap->starts_.reserve(n);
  snap->seg_size_ = std::bit_ceil(std::max<size_t>(n, 1));
  snap->seg_max_end_.assign(2 * snap->seg_size_, kInvalidTimestamp);
  Timestamp* const ends = snap->seg_max_end_.data() + snap->seg_size_;
  const Timestamp* const old_ends = old.seg_max_end_.data() + old.seg_size_;

  // Entries, boxes, starts and ends: each addition goes in at its place in
  // the old canonical order, found by binary search, and the old ids in
  // between are copied over as ranges. remap[i] is old id i's new id
  // (increasing in i), and fresh lists the additions' new ids, ascending.
  std::vector<ConvoyId> remap, fresh;
  remap.reserve(old.size());
  fresh.reserve(added_.size());
  const auto take_old = [&](size_t to) {
    const size_t from = remap.size(), at = snap->entries_.size();
    remap.resize(to);
    std::iota(remap.begin() + from, remap.end(), static_cast<ConvoyId>(at));
    std::copy(old_ends + from, old_ends + to, ends + at);
    const auto append = [from, to](auto* out, const auto& in) {
      out->insert(out->end(), in.begin() + from, in.begin() + to);
    };
    append(&snap->entries_, old.entries_);
    append(&snap->boxes_, old.boxes_);
    append(&snap->starts_, old.starts_);
  };
  snap->footprint_points_ = old.footprint_points_;
  for (const auto& [convoy, entry] : added_) {
    take_old(old.LowerBound(convoy));
    ends[snap->entries_.size()] = convoy.end;
    fresh.push_back(static_cast<ConvoyId>(snap->entries_.size()));
    snap->entries_.push_back(entry);
    snap->boxes_.push_back(entry->box);
    snap->starts_.push_back(convoy.start);
    snap->footprint_points_ += entry->points.size();
  }
  take_old(old.size());

  // Interval index: the max-end segment tree over the ends, bottom up.
  for (size_t node = snap->seg_size_ - 1; node > 0; --node) {
    snap->seg_max_end_[node] = std::max(snap->seg_max_end_[2 * node],
                                        snap->seg_max_end_[2 * node + 1]);
  }

  // Inverted object index, object by object in ascending oid order: the
  // old run remapped (still ascending, since the remap is increasing) with
  // the additions' ids of that object merged in. Only the additions'
  // (oid, id) pairs are sorted.
  std::vector<std::pair<ObjectId, ConvoyId>> added_postings;
  for (const ConvoyId id : fresh) {
    for (const ObjectId oid : snap->convoy(id).objects) {
      added_postings.emplace_back(oid, id);
    }
  }
  std::sort(added_postings.begin(), added_postings.end());
  snap->obj_oids_.reserve(old.obj_oids_.size() + added_postings.size());
  snap->obj_starts_.reserve(old.obj_oids_.size() + added_postings.size() + 1);
  snap->obj_postings_.resize(old.obj_postings_.size() + added_postings.size());
  ConvoyId* out = snap->obj_postings_.data();
  std::vector<ConvoyId> ids;  // the additions' ids of one object
  for (size_t o = 0, a = 0;
       o < old.obj_oids_.size() || a < added_postings.size();) {
    ObjectId oid = o < old.obj_oids_.size()
                       ? old.obj_oids_[o]
                       : std::numeric_limits<ObjectId>::max();
    if (a < added_postings.size()) oid = std::min(oid, added_postings[a].first);
    std::span<const ConvoyId> run;
    if (o < old.obj_oids_.size() && old.obj_oids_[o] == oid) {
      run = old.Postings(o++);
    }
    ids.clear();
    for (; a < added_postings.size() && added_postings[a].first == oid; ++a) {
      ids.push_back(added_postings[a].second);
    }
    snap->obj_oids_.push_back(oid);
    snap->obj_starts_.push_back(
        static_cast<uint32_t>(out - snap->obj_postings_.data()));
    out = MergeRemapped(run, remap, ids, std::less<ConvoyId>(), out);
  }
  snap->obj_starts_.push_back(
      static_cast<uint32_t>(snap->obj_postings_.size()));

  // Rank orders (metric descending, ties by ascending id): the old order
  // remapped is still ranked, because metrics do not change and the remap
  // keeps ties in id order; the additions, ranked on their own, merge in.
  const CatalogSnapshot* s = snap.get();
  for (const ConvoyRank rank : {ConvoyRank::kLongest, ConvoyRank::kLargest}) {
    const auto before = [s, rank](ConvoyId a, ConvoyId b) {
      return s->RankBefore(rank, a, b);
    };
    std::sort(fresh.begin(), fresh.end(), before);
    std::vector<ConvoyId>& order =
        rank == ConvoyRank::kLongest ? snap->by_length_ : snap->by_size_;
    order.resize(n);
    MergeRemapped(old.Ranked(rank), remap, fresh, before, order.data());
  }

  base_ = std::move(snap);
  added_.clear();
  snapshot_.Store(base_, writer_mu_);
  return base_;
}

size_t ConvoyCatalog::pending_size() const {
  MutexLock lock(writer_mu_);
  return base_->size() + added_.size();
}

Status ConvoyCatalog::hook_status() const {
  MutexLock lock(writer_mu_);
  return hook_status_;
}

std::function<void(const Convoy&)> ConvoyCatalog::OnClosedHook(
    Store* store, size_t publish_every) {
  return [this, store, publish_every, ingested = size_t{0}](
             const Convoy& convoy) mutable {
    MutexLock lock(writer_mu_);
    const Status status = AddLocked(convoy, store);
    if (!status.ok()) {
      if (hook_status_.ok()) hook_status_ = status;
      return;
    }
    if (publish_every > 0 && ++ingested % publish_every == 0) PublishLocked();
  };
}

}  // namespace k2
