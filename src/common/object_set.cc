#include "common/object_set.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/simd.h"

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
  return simd::Active().is_subset(ids_.data(), ids_.size(), other.ids_.data(),
                                  other.ids_.size());
}

ObjectSet ObjectSet::Intersect(const ObjectSet& a, const ObjectSet& b) {
  // min(na, nb) result entries plus the kernel's compress-store slack.
  std::vector<ObjectId> out(std::min(a.size(), b.size()) +
                            simd::kMaxLaneSlack);
  const size_t n = simd::Active().intersect(a.ids_.data(), a.size(),
                                            b.ids_.data(), b.size(),
                                            out.data());
  out.resize(n);
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
