// Serving layer: ConvoyCatalog materializes mined convoys behind three
// read-optimized indexes — an interval index over lifespans (max-end
// segment tree over the canonical start-sorted order), an inverted
// object-id → convoy index (CSR postings), and a spatial footprint grid
// (the flat CSR GridIndex from cluster/, fed with member positions sampled
// over each convoy's lifespan) — so the questions users ask of mined
// convoys (Jeung et al.: which convoys contain object o? overlap window
// [a,b]? pass through region R?) are index lookups instead of rescans of a
// flat result vector.
//
// Concurrency model (epoch/RCU, left-right flavour): the write side
// (AddConvoys / ReplaceAll / Publish, single writer, internally serialized)
// builds a fresh immutable CatalogSnapshot and publishes it through a
// two-slot SnapshotCell. Readers never take a lock: they pick the active
// slot, announce themselves with a monotonic ingress counter, re-check the
// slot, copy the shared_ptr out, and retire via the egress counter — a few
// uncontended atomic RMWs. The writer toggles the active slot and, before
// reusing the retired one on a LATER publish, waits for its straggler
// readers to drain, so at most two epochs are live beyond what readers
// hold. A snapshot never changes after publication: a reader is
// snapshot-consistent across any number of queries and never blocks or is
// blocked by an ingest. (std::atomic<std::shared_ptr> would express the
// same swap, but libstdc++'s implementation makes readers spin on a lock
// bit and trips TSan; the explicit cell is genuinely reader-lock-free and
// exactly models the happens-before the CI TSan gate verifies.)
//
// The catalog is miner-agnostic: bulk-fed from batch MineK2Hop output
// (sharded or not), or incrementally from OnlineK2HopMiner via
// the OnClosedHook adapter (with ReplaceAll as the reconcile step after
// Finalize()). Catalogs fed the same convoys from any source answer every
// query identically (asserted by tests/serve_differential_test.cc).
#ifndef K2_SERVE_CATALOG_H_
#define K2_SERVE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/grid_index.h"
#include "common/convoy.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "storage/store.h"

namespace k2 {

/// Index of a convoy inside one CatalogSnapshot. Ids are snapshot-local:
/// convoys are numbered 0..size-1 in canonical convoy order, so equal
/// snapshots assign equal ids, but ids must not be carried across epochs.
using ConvoyId = uint32_t;

/// Ranking metric of TopK queries.
enum class ConvoyRank {
  kLongest,  ///< by lifespan length, descending
  kLargest,  ///< by object count, descending
};

/// One sampled member position of a convoy's spatial footprint.
struct FootprintPoint {
  double x = 0.0;
  double y = 0.0;
};

struct CatalogOptions {
  /// Tick stride of footprint sampling: a convoy's footprint is its member
  /// positions at ticks start, start+stride, start+2*stride, ... plus
  /// always the final tick. 1 = every tick of the lifespan.
  int footprint_stride = 1;
  /// Requested cell side of the footprint grid; 0 = derived from the
  /// footprint bounding box so the grid has about one point per cell (the
  /// GridIndex auto-grow bounds memory either way).
  double grid_cell_size = 0.0;
};

/// An immutable, fully indexed view of the catalog at one publish epoch.
/// Obtained via ConvoyCatalog::snapshot() (a lock-free atomic load) and
/// queried without any synchronization; the snapshot stays valid and
/// unchanged for as long as the reader holds the pointer, regardless of
/// concurrent ingests. All id-list results are ascending — i.e. canonical
/// convoy order — which makes conjunctions sorted-list intersections.
class CatalogSnapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  size_t size() const { return convoys_.size(); }
  bool empty() const { return convoys_.empty(); }
  /// Canonical order; ConvoyId indexes into this.
  const std::vector<Convoy>& convoys() const { return convoys_; }
  const Convoy& convoy(ConvoyId id) const { return convoys_[id]; }
  /// Total sampled footprint points behind the spatial index.
  size_t footprint_points() const { return fp_convoy_.size(); }

  /// Convoys whose object set contains `oid`.
  void ByObject(ObjectId oid, std::vector<ConvoyId>* out) const;
  /// Convoys whose lifespan overlaps `window` (inclusive on both ends).
  void ByTimeWindow(TimeRange window, std::vector<ConvoyId>* out) const;
  /// Convoys with at least one sampled footprint point inside `region`.
  void ByRegion(const Rect& region, std::vector<ConvoyId>* out) const;

  /// All ids ranked by `rank`: metric descending, ties by ascending id.
  const std::vector<ConvoyId>& Ranked(ConvoyRank rank) const {
    return rank == ConvoyRank::kLongest ? by_length_ : by_size_;
  }
  /// The strict weak order behind Ranked(), for ranking filtered subsets.
  bool RankBefore(ConvoyRank rank, ConvoyId a, ConvoyId b) const;

 private:
  friend class ConvoyCatalog;
  CatalogSnapshot() = default;

  /// Reports every i < limit with convoys_[i].end >= min_end from the
  /// max-end segment tree node covering [lo, hi), ascending.
  void ReportOverlaps(size_t node, size_t lo, size_t hi, Timestamp min_end,
                      size_t limit, std::vector<ConvoyId>* out) const;

  uint64_t epoch_ = 0;
  std::vector<Convoy> convoys_;

  // Interval index: convoys_ is start-sorted (canonical order), so the
  // overlap query "start <= b AND end >= a" is a prefix cut by start plus a
  // descent of this max-end segment tree (seg_size_ is the padded pow2 leaf
  // count; unpopulated leaves hold kInvalidTimestamp).
  size_t seg_size_ = 0;
  std::vector<Timestamp> seg_max_end_;

  // Inverted object index: postings of oid obj_oids_[i] occupy
  // [obj_starts_[i], obj_starts_[i+1]) of obj_postings_, ids ascending.
  std::vector<ObjectId> obj_oids_;
  std::vector<uint32_t> obj_starts_;
  std::vector<ConvoyId> obj_postings_;

  // Spatial footprint grid: grid_ indexes the concatenated footprint
  // points; fp_convoy_[p] is the convoy that owns point p.
  GridIndex grid_;
  std::vector<ConvoyId> fp_convoy_;

  std::vector<ConvoyId> by_length_;
  std::vector<ConvoyId> by_size_;
};

namespace detail {

/// Left-right publication cell: single writer, any number of lock-free
/// readers. Two slots hold the two most recent epochs; `active_` names the
/// one readers should enter. A reader announces itself on a slot's ingress
/// counter, re-checks `active_` (backing out if the writer toggled
/// mid-entry), copies the slot's shared_ptr, and retires via egress. The
/// writer stores into the INACTIVE slot — after spinning until that slot's
/// straggler readers drained — then toggles. All counters and the slot
/// index are seq_cst: the egress increment / drain load pair puts every
/// reader's copy strictly before the writer's overwrite, and the toggle
/// store / re-check load pair publishes the new snapshot to late entrants.
///
/// What the thread-safety analyzer sees of this: each Slot is a capability
/// that is deliberately never acquirable, and `snap` is guarded by it — so
/// under clang, the ONLY functions allowed to touch a slot's shared_ptr
/// are Load() and Store() below, whose definitions carry an explicit
/// K2_NO_THREAD_SAFETY_ANALYSIS plus the prose invariant that makes the
/// unchecked access safe. The epoch protocol has exactly two doors, and
/// adding a third is a compile error, not a review comment. Store()
/// additionally demands the catalog's writer mutex as a capability token,
/// machine-checking the single-writer half of the contract.
class SnapshotCell {
 public:
  /// Wait-free unless the writer is toggling at this exact moment (then
  /// one retry). Never returns null once Store ran with a non-null value.
  std::shared_ptr<const CatalogSnapshot> Load() const;

  /// Single writer only: `writer_mu` is the catalog's writer mutex, taken
  /// as a capability token so unserialized stores fail to compile. Blocks
  /// until the retired slot's readers — those that entered before the
  /// PREVIOUS toggle — have left; readers only hold a slot for a pointer
  /// copy.
  void Store(std::shared_ptr<const CatalogSnapshot> next,
             const Mutex& writer_mu) K2_REQUIRES(writer_mu);

 private:
  struct K2_CAPABILITY("epoch-slot") Slot {
    /// Readable/writable only through the counter protocol above; the
    /// guard makes any access outside Load()/Store() a compile error.
    std::shared_ptr<const CatalogSnapshot> snap K2_GUARDED_BY(this);
    mutable std::atomic<uint64_t> ingress{0};
    mutable std::atomic<uint64_t> egress{0};
  };
  Slot slots_[2];
  std::atomic<int> active_{0};
};

}  // namespace detail

/// The write side. Single-writer by contract of the miners feeding it, but
/// all mutators serialize on an internal mutex anyway (the OnClosedHook and
/// a manual Publish may race benignly); readers never take any lock.
class ConvoyCatalog {
 public:
  explicit ConvoyCatalog(CatalogOptions options = {});

  /// Adds convoys to the writer state, computing each NEW convoy's spatial
  /// footprint from `store` (GetPoints reads of the member objects over the
  /// sampled lifespan ticks); re-adding a known convoy is a no-op. Not
  /// visible to readers until Publish().
  Status AddConvoys(std::span<const Convoy> convoys, Store* store)
      K2_EXCLUDES(writer_mu_);
  Status AddConvoy(const Convoy& convoy, Store* store)
      K2_EXCLUDES(writer_mu_);

  /// Replaces the entire content with `convoys` — the reconcile step after
  /// OnlineK2HopMiner::Finalize(), whose authoritative result may drop an
  /// eagerly emitted convoy that ended up dominated. Footprints of convoys
  /// already in the catalog are reused, not recomputed. On error the
  /// catalog is unchanged. Publish() afterwards to expose the new content.
  Status ReplaceAll(std::span<const Convoy> convoys, Store* store)
      K2_EXCLUDES(writer_mu_);

  /// Builds a snapshot of the current writer state and atomically swaps it
  /// in as the new epoch; returns the published snapshot.
  std::shared_ptr<const CatalogSnapshot> Publish() K2_EXCLUDES(writer_mu_);

  /// The latest published snapshot (never null: epoch 0 is an empty
  /// snapshot). Lock-free; hold the pointer for snapshot-consistent reads.
  std::shared_ptr<const CatalogSnapshot> snapshot() const {
    return snapshot_.Load();
  }

  /// Convoys in the writer state (>= the published snapshot's size until
  /// the next Publish()).
  size_t pending_size() const K2_EXCLUDES(writer_mu_);

  /// First error swallowed by OnClosedHook (hooks cannot propagate Status);
  /// OK when none occurred.
  Status hook_status() const K2_EXCLUDES(writer_mu_);

  /// An OnlineK2HopOptions::on_closed adapter: ingests every closed convoy
  /// (footprints read from `store`, the miner's own store — safe because
  /// the hook runs on the ingest thread between appends) and republishes
  /// every `publish_every` ingests. Errors are sticky in hook_status().
  /// The returned callable borrows this catalog and `store`.
  ///
  /// Each publish rebuilds the full snapshot — O(catalog) in convoys and
  /// footprint points — so publish_every=1 ("live" dashboards) makes a
  /// long stream's total ingest cost quadratic in catalog size; raise
  /// publish_every (or publish on a timer) for heavy streams.
  std::function<void(const Convoy&)> OnClosedHook(Store* store,
                                                  size_t publish_every = 1);

 private:
  Status AddLocked(const Convoy& convoy, Store* store)
      K2_REQUIRES(writer_mu_);
  std::shared_ptr<const CatalogSnapshot> PublishLocked()
      K2_REQUIRES(writer_mu_);
  Status ComputeFootprint(const Convoy& convoy, Store* store,
                          std::vector<FootprintPoint>* out) const;

  CatalogOptions options_;
  mutable Mutex writer_mu_;
  /// Master state: convoy -> sampled footprint, in canonical order (which
  /// is what makes snapshot ids deterministic).
  std::map<Convoy, std::vector<FootprintPoint>> entries_
      K2_GUARDED_BY(writer_mu_);
  uint64_t epoch_ K2_GUARDED_BY(writer_mu_) = 0;
  Status hook_status_ K2_GUARDED_BY(writer_mu_) = Status::OK();
  detail::SnapshotCell snapshot_;
};

}  // namespace k2

#endif  // K2_SERVE_CATALOG_H_
