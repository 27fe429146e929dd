#include "serve/query.h"

#include <algorithm>

namespace k2 {

namespace {

/// a := a ∩ b; both ascending.
void IntersectInto(std::vector<ConvoyId>* a, const std::vector<ConvoyId>& b) {
  size_t out = 0, j = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    while (j < b.size() && b[j] < (*a)[i]) ++j;
    if (j < b.size() && b[j] == (*a)[i]) (*a)[out++] = (*a)[i];
  }
  a->resize(out);
}

}  // namespace

void ConvoyQueryEngine::FindIds(const CatalogSnapshot& snap,
                                const ConvoyQuery& query,
                                std::vector<ConvoyId>* out) {
  out->clear();
  if (query.unconstrained()) {
    out->resize(snap.size());
    for (size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = static_cast<ConvoyId>(i);
    }
    return;
  }
  // Intersect the ascending id lists of the object and window indexes
  // (postings are pre-materialized, the interval cut is O(log n + k)); the
  // region test filters those ids, or scans every convoy when alone.
  bool seeded = false;
  std::vector<ConvoyId> ids;
  if (query.object.has_value()) {
    snap.ByObject(*query.object, out);
    seeded = true;
    if (out->empty()) return;
  }
  if (query.time_window.has_value()) {
    snap.ByTimeWindow(*query.time_window, seeded ? &ids : out);
    if (seeded) IntersectInto(out, ids);
    seeded = true;
    if (out->empty()) return;
  }
  if (query.region.has_value()) {
    if (!seeded) return snap.ByRegion(*query.region, out);
    std::erase_if(*out, [&](ConvoyId id) {
      return !snap.InRegion(id, *query.region);
    });
  }
}

void ConvoyQueryEngine::TopKIds(const CatalogSnapshot& snap,
                                const ConvoyQuery& query, ConvoyRank rank,
                                size_t k, std::vector<ConvoyId>* out) {
  if (query.unconstrained()) {
    const std::vector<ConvoyId>& ranked = snap.Ranked(rank);
    out->assign(ranked.begin(),
                ranked.begin() + std::min(k, ranked.size()));
    return;
  }
  FindIds(snap, query, out);
  const size_t keep = std::min(k, out->size());
  std::partial_sort(out->begin(), out->begin() + keep, out->end(),
                    [&snap, rank](ConvoyId a, ConvoyId b) {
                      return snap.RankBefore(rank, a, b);
                    });
  out->resize(keep);
}

std::shared_ptr<const CatalogSnapshot> ConvoyQueryEngine::Pin() const {
  return catalog_->snapshot();
}

std::vector<Convoy> ConvoyQueryEngine::Materialize(
    const CatalogSnapshot& snap, const std::vector<ConvoyId>& ids) const {
  std::vector<Convoy> out;
  out.reserve(ids.size());
  for (ConvoyId id : ids) out.push_back(snap.convoy(id));
  return out;
}

std::vector<Convoy> ConvoyQueryEngine::ByObject(ObjectId oid) const {
  const auto snap = Pin();
  std::vector<ConvoyId> ids;
  snap->ByObject(oid, &ids);
  return Materialize(*snap, ids);
}

std::vector<Convoy> ConvoyQueryEngine::ByTimeWindow(TimeRange window) const {
  const auto snap = Pin();
  std::vector<ConvoyId> ids;
  snap->ByTimeWindow(window, &ids);
  return Materialize(*snap, ids);
}

std::vector<Convoy> ConvoyQueryEngine::ByRegion(const Rect& region) const {
  const auto snap = Pin();
  std::vector<ConvoyId> ids;
  snap->ByRegion(region, &ids);
  return Materialize(*snap, ids);
}

std::vector<Convoy> ConvoyQueryEngine::TopK(ConvoyRank rank, size_t k) const {
  return TopK(ConvoyQuery{}, rank, k);
}

std::vector<Convoy> ConvoyQueryEngine::Find(const ConvoyQuery& query) const {
  const auto snap = Pin();
  std::vector<ConvoyId> ids;
  FindIds(*snap, query, &ids);
  return Materialize(*snap, ids);
}

std::vector<Convoy> ConvoyQueryEngine::TopK(const ConvoyQuery& query,
                                            ConvoyRank rank, size_t k) const {
  const auto snap = Pin();
  std::vector<ConvoyId> ids;
  TopKIds(*snap, query, rank, k, &ids);
  return Materialize(*snap, ids);
}

}  // namespace k2
