#include "serve/catalog.h"

#include <algorithm>
#include <cmath>
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

// A convoy's footprint: its members' positions at every tick of its
// lifespan, sorted by x, and their bounding box. The tick counter is 64-bit
// so that a lifespan ending at the largest Timestamp terminates.
Result<std::shared_ptr<const Footprint>> BuildFootprint(const Convoy& convoy,
                                                        Store* store) {
  auto footprint = std::make_shared<Footprint>();
  std::vector<FootprintPoint>& points = footprint->points;
  std::vector<SnapshotPoint> buf;
  for (int64_t t = convoy.start; t <= convoy.end; ++t) {
    K2_RETURN_NOT_OK(
        store->GetPoints(static_cast<Timestamp>(t), convoy.objects, &buf));
    // A NaN coordinate is inside no rect and would break the sort below.
    for (const SnapshotPoint& p : buf) {
      if (!std::isnan(p.x) && !std::isnan(p.y)) points.push_back({p.x, p.y});
    }
  }
  std::ranges::sort(points, {}, &FootprintPoint::x);
  if (!points.empty()) {
    const auto [lo, hi] =
        std::ranges::minmax_element(points, {}, &FootprintPoint::y);
    footprint->box = {points.front().x, lo->y, points.back().x, hi->y};
  }
  return std::shared_ptr<const Footprint>(std::move(footprint));
}

}  // namespace

void CatalogSnapshot::ByObject(ObjectId oid, std::vector<ConvoyId>* out) const {
  out->clear();
  const auto it = std::lower_bound(obj_oids_.begin(), obj_oids_.end(), oid);
  if (it == obj_oids_.end() || *it != oid) return;
  const size_t i = static_cast<size_t>(it - obj_oids_.begin());
  out->assign(obj_postings_.begin() + obj_starts_[i],
              obj_postings_.begin() + obj_starts_[i + 1]);
}

void CatalogSnapshot::ByTimeWindow(TimeRange window,
                                   std::vector<ConvoyId>* out) const {
  out->clear();
  if (convoys_.empty() || window.empty()) return;
  // Overlap = start <= window.end AND end >= window.start. convoys_ is
  // start-sorted, so the first conjunct is a prefix cut; the segment tree
  // reports the second inside that prefix in ascending id order.
  const size_t limit = static_cast<size_t>(
      std::upper_bound(convoys_.begin(), convoys_.end(), window.end,
                       [](Timestamp t, const Convoy& c) {
                         return t < c.start;
                       }) -
      convoys_.begin());
  if (limit == 0) return;
  ReportOverlaps(1, 0, seg_size_, window.start, limit, out);
}

void CatalogSnapshot::ReportOverlaps(size_t node, size_t lo, size_t hi,
                                     Timestamp min_end, size_t limit,
                                     std::vector<ConvoyId>* out) const {
  if (lo >= limit || seg_max_end_[node] < min_end) return;
  if (hi - lo == 1) {
    if (lo < convoys_.size()) out->push_back(static_cast<ConvoyId>(lo));
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
  // A box disjoint from the rect (or empty) is a miss, one inside it a hit;
  // a straddling box looks for a point inside among those from min x on.
  const Rect& box = boxes_[id];
  if (box.empty() || box.max_x < region.min_x || box.min_x > region.max_x ||
      box.max_y < region.min_y || box.min_y > region.max_y) {
    return false;
  }
  if (region.Contains(box.min_x, box.min_y) &&
      region.Contains(box.max_x, box.max_y)) {
    return true;
  }
  const std::vector<FootprintPoint>& points = footprints_[id]->points;
  auto it = std::ranges::lower_bound(points, region.min_x, {},
                                     &FootprintPoint::x);
  for (; it != points.end() && it->x <= region.max_x; ++it) {
    if (region.Contains(it->x, it->y)) return true;
  }
  return false;
}

bool CatalogSnapshot::RankBefore(ConvoyRank rank, ConvoyId a,
                                 ConvoyId b) const {
  if (rank == ConvoyRank::kLongest) {
    const int64_t la = convoys_[a].length(), lb = convoys_[b].length();
    if (la != lb) return la > lb;
  } else {
    const size_t sa = convoys_[a].objects.size(),
                 sb = convoys_[b].objects.size();
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
  K2_ASSIGN_OR_RETURN(auto footprint, BuildFootprint(convoy, store));
  added_.emplace(convoy, std::move(footprint));
  return Status::OK();
}

std::shared_ptr<const Footprint> ConvoyCatalog::FindLocked(
    const Convoy& convoy) const {
  const std::vector<Convoy>& published = base_->convoys_;
  const auto it = std::lower_bound(published.begin(), published.end(), convoy);
  if (it != published.end() && *it == convoy) {
    return base_->footprints_[static_cast<size_t>(it - published.begin())];
  }
  const auto added = added_.find(convoy);
  return added == added_.end() ? nullptr : added->second;
}

Status ConvoyCatalog::ReplaceAll(std::span<const Convoy> convoys,
                                 Store* store) {
  MutexLock lock(writer_mu_);
  // Build the replacement aside (sharing known footprints) so an error
  // mid-way leaves the current content untouched.
  std::map<Convoy, std::shared_ptr<const Footprint>> next;
  for (const Convoy& convoy : convoys) {
    if (next.contains(convoy)) continue;
    std::shared_ptr<const Footprint> footprint = FindLocked(convoy);
    if (!footprint) {
      K2_ASSIGN_OR_RETURN(footprint, BuildFootprint(convoy, store));
    }
    next.emplace(convoy, std::move(footprint));
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
  snap->convoys_.reserve(n);
  snap->footprints_.reserve(n);
  snap->boxes_.reserve(n);

  // Convoys, footprints and boxes: the additions merged into the old
  // canonical order. remap[i] is old id i's new id (increasing in i), and
  // fresh lists the additions' new ids, ascending.
  const auto push = [&snap](const Convoy& convoy,
                           const std::shared_ptr<const Footprint>& footprint) {
    snap->convoys_.push_back(convoy);
    snap->footprints_.push_back(footprint);
    snap->boxes_.push_back(footprint->box);
    snap->footprint_points_ += footprint->points.size();
    return static_cast<ConvoyId>(snap->convoys_.size() - 1);
  };
  std::vector<ConvoyId> remap, fresh;
  remap.reserve(old.size());
  fresh.reserve(added_.size());
  auto add = added_.begin();
  for (size_t i = 0; i < old.size() || add != added_.end();) {
    if (add == added_.end() ||
        (i < old.size() && old.convoys_[i] < add->first)) {
      remap.push_back(push(old.convoys_[i], old.footprints_[i]));
      ++i;
    } else {
      fresh.push_back(push(add->first, add->second));
      ++add;
    }
  }

  // Interval index: max-end segment tree over the start-sorted convoys.
  snap->seg_size_ = 1;
  while (snap->seg_size_ < std::max<size_t>(n, 1)) snap->seg_size_ *= 2;
  snap->seg_max_end_.assign(2 * snap->seg_size_, kInvalidTimestamp);
  for (size_t i = 0; i < n; ++i) {
    snap->seg_max_end_[snap->seg_size_ + i] = snap->convoys_[i].end;
  }
  for (size_t i = snap->seg_size_ - 1; i > 0; --i) {
    snap->seg_max_end_[i] =
        std::max(snap->seg_max_end_[2 * i], snap->seg_max_end_[2 * i + 1]);
  }

  // Inverted object index: the old postings as (oid, remapped id) pairs
  // keep their (oid, id) order, since the remap is increasing; merging in
  // the additions' sorted pairs gives the CSR order with ids ascending per
  // oid. Only the additions' pairs are sorted.
  std::vector<std::pair<ObjectId, ConvoyId>> postings;
  postings.reserve(old.obj_postings_.size());
  for (size_t o = 0; o < old.obj_oids_.size(); ++o) {
    for (uint32_t p = old.obj_starts_[o]; p < old.obj_starts_[o + 1]; ++p) {
      postings.emplace_back(old.obj_oids_[o], remap[old.obj_postings_[p]]);
    }
  }
  const size_t old_postings = postings.size();
  for (ConvoyId id : fresh) {
    for (ObjectId oid : snap->convoys_[id].objects) {
      postings.emplace_back(oid, id);
    }
  }
  std::sort(postings.begin() + old_postings, postings.end());
  std::inplace_merge(postings.begin(), postings.begin() + old_postings,
                     postings.end());
  snap->obj_postings_.reserve(postings.size());
  for (const auto& [oid, id] : postings) {
    if (snap->obj_oids_.empty() || snap->obj_oids_.back() != oid) {
      snap->obj_oids_.push_back(oid);
      snap->obj_starts_.push_back(
          static_cast<uint32_t>(snap->obj_postings_.size()));
    }
    snap->obj_postings_.push_back(id);
  }
  snap->obj_starts_.push_back(
      static_cast<uint32_t>(snap->obj_postings_.size()));

  // Rank orders (metric descending, ties by ascending id): the old order
  // remapped is still ranked, because metrics do not change and the remap
  // keeps ties in id order; merge in the additions, ranked on their own.
  const CatalogSnapshot* s = snap.get();
  for (const ConvoyRank rank : {ConvoyRank::kLongest, ConvoyRank::kLargest}) {
    const auto before = [s, rank](ConvoyId a, ConvoyId b) {
      return s->RankBefore(rank, a, b);
    };
    std::vector<ConvoyId> order;
    order.reserve(n);
    for (ConvoyId id : old.Ranked(rank)) order.push_back(remap[id]);
    const size_t old_ranked = order.size();
    order.insert(order.end(), fresh.begin(), fresh.end());
    std::sort(order.begin() + old_ranked, order.end(), before);
    std::inplace_merge(order.begin(), order.begin() + old_ranked, order.end(),
                       before);
    (rank == ConvoyRank::kLongest ? snap->by_length_ : snap->by_size_) =
        std::move(order);
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
