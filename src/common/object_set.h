// ObjectSet: an immutable, sorted, duplicate-free set of object ids with
// merge-based set algebra. The set-wise intersections of benchmark cluster
// sets (paper Sec. 4.2), the merge's intersection chains (Sec. 4.4) and the
// maximal-set update of extension and validation (Sec. 4.5-4.6) run through
// this type, so it is kept deliberately small and cache-friendly. Those sets
// hold a handful of ids (a convoy needs only m of them), so the algebra is
// two plain std merges.
#ifndef K2_COMMON_OBJECT_SET_H_
#define K2_COMMON_OBJECT_SET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"

namespace k2 {

class ObjectSet {
 public:
  ObjectSet() = default;

  /// Builds a set from arbitrary ids: sorts and removes duplicates.
  explicit ObjectSet(std::vector<ObjectId> ids);

  /// Builds a set from ids that are already sorted and unique (checked in
  /// debug builds only).
  static ObjectSet FromSorted(std::vector<ObjectId> ids);

  /// Convenience for tests and examples: ObjectSet::Of({3, 1, 2}).
  static ObjectSet Of(std::initializer_list<ObjectId> ids);

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  bool Contains(ObjectId oid) const;
  /// A size check, then one merge (std::includes); O(|a| + |b|).
  bool IsSubsetOf(const ObjectSet& other) const;

  /// One merge (std::set_intersection) into a vector reserved at
  /// min(|a|, |b|); O(|a| + |b|).
  static ObjectSet Intersect(const ObjectSet& a, const ObjectSet& b);

  const std::vector<ObjectId>& ids() const { return ids_; }
  std::vector<ObjectId>::const_iterator begin() const { return ids_.begin(); }
  std::vector<ObjectId>::const_iterator end() const { return ids_.end(); }

  /// "{1, 2, 5}".
  std::string DebugString() const;

  friend bool operator==(const ObjectSet& a, const ObjectSet& b) {
    return a.ids_ == b.ids_;
  }
  /// Lexicographic order; gives convoy results a canonical order.
  friend bool operator<(const ObjectSet& a, const ObjectSet& b) {
    return a.ids_ < b.ids_;
  }

  /// FNV-1a hash over the id array.
  size_t Hash() const;

 private:
  std::vector<ObjectId> ids_;
};

struct ObjectSetHash {
  size_t operator()(const ObjectSet& s) const { return s.Hash(); }
};

}  // namespace k2

#endif  // K2_COMMON_OBJECT_SET_H_
