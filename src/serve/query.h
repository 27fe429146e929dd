// Typed query API over a ConvoyCatalog. The engine is a thin facade: each
// call pins the latest published snapshot (one lock-free atomic load),
// plans against its indexes, and materializes the answers as Convoy copies
// (safe to hold after the catalog moves on). Hot loops that want zero
// copies — the serving bench, dashboards polling at high rate — pin a
// snapshot themselves and use the static id-level forms.
//
// All predicates compose as conjunctions: a ConvoyQuery is "contains
// object o AND overlaps window [a,b] AND passes through region R" for
// whichever predicates are populated. Results of Find are in canonical
// convoy order; results of TopK are in rank order (metric descending, ties
// by canonical order), so equal catalogs answer byte-identically no matter
// which miner fed them.
#ifndef K2_SERVE_QUERY_H_
#define K2_SERVE_QUERY_H_

#include <optional>
#include <vector>

#include "serve/catalog.h"

namespace k2 {

/// Conjunction of the populated predicates; empty query = everything.
struct ConvoyQuery {
  std::optional<ObjectId> object;
  std::optional<TimeRange> time_window;
  std::optional<Rect> region;

  bool unconstrained() const {
    return !object.has_value() && !time_window.has_value() &&
           !region.has_value();
  }
};

class ConvoyQueryEngine {
 public:
  /// Borrows `catalog`, which must outlive the engine.
  explicit ConvoyQueryEngine(const ConvoyCatalog* catalog)
      : catalog_(catalog) {}

  /// Convoys whose object set contains `oid`, canonical order.
  std::vector<Convoy> ByObject(ObjectId oid) const;
  /// Convoys whose lifespan overlaps `window`, canonical order.
  std::vector<Convoy> ByTimeWindow(TimeRange window) const;
  /// Convoys passing through `region` (any footprint point inside),
  /// canonical order.
  std::vector<Convoy> ByRegion(const Rect& region) const;
  /// The `k` best convoys by `rank` (all of them when k >= size).
  std::vector<Convoy> TopK(ConvoyRank rank, size_t k) const;
  /// Conjunction of every populated predicate, canonical order.
  std::vector<Convoy> Find(const ConvoyQuery& query) const;
  /// The `k` best convoys by `rank` among the conjunction's answers.
  std::vector<Convoy> TopK(const ConvoyQuery& query, ConvoyRank rank,
                           size_t k) const;

  /// The snapshot the next call would pin; hold it and use the id-level
  /// forms below for copy-free, snapshot-consistent query sequences.
  std::shared_ptr<const CatalogSnapshot> Pin() const;

  /// Id-level conjunction against a pinned snapshot; `out` ascending.
  static void FindIds(const CatalogSnapshot& snap, const ConvoyQuery& query,
                      std::vector<ConvoyId>* out);
  /// Id-level TopK against a pinned snapshot; `out` in rank order.
  static void TopKIds(const CatalogSnapshot& snap, const ConvoyQuery& query,
                      ConvoyRank rank, size_t k, std::vector<ConvoyId>* out);

 private:
  std::vector<Convoy> Materialize(const CatalogSnapshot& snap,
                                  const std::vector<ConvoyId>& ids) const;

  const ConvoyCatalog* catalog_;
};

}  // namespace k2

#endif  // K2_SERVE_QUERY_H_
