#include "common/object_set.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <sstream>

namespace k2 {

ObjectSet::ObjectSet(std::vector<ObjectId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

ObjectSet ObjectSet::FromSorted(std::vector<ObjectId> ids) {
  assert(std::is_sorted(ids.begin(), ids.end()));
  assert(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  ObjectSet s;
  s.ids_ = std::move(ids);
  return s;
}

ObjectSet ObjectSet::Of(std::initializer_list<ObjectId> ids) {
  return ObjectSet(std::vector<ObjectId>(ids));
}

bool ObjectSet::Contains(ObjectId oid) const {
  return std::binary_search(ids_.begin(), ids_.end(), oid);
}

bool ObjectSet::IsSubsetOf(const ObjectSet& other) const {
  return ids_.size() <= other.ids_.size() &&
         std::includes(other.ids_.begin(), other.ids_.end(), ids_.begin(),
                       ids_.end());
}

ObjectSet ObjectSet::Intersect(const ObjectSet& a, const ObjectSet& b) {
  std::vector<ObjectId> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.ids_.begin(), a.ids_.end(), b.ids_.begin(),
                        b.ids_.end(), std::back_inserter(out));
  return FromSorted(std::move(out));
}

std::string ObjectSet::DebugString() const {
  std::ostringstream os;
  os << '{';
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (i > 0) os << ", ";
    os << ids_[i];
  }
  os << '}';
  return os.str();
}

size_t ObjectSet::Hash() const {
  // FNV-1a over the raw id bytes.
  size_t h = 1469598103934665603ULL;
  for (ObjectId id : ids_) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (id >> shift) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace k2
