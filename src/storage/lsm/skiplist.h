// Skip list keyed by the packed (t, oid) key — the LSM memtable structure.
// Single-threaded by design (the mining pipeline is sequential, like the
// paper's implementation); expected O(log n) insert/lookup, ordered scans.
#ifndef K2_STORAGE_LSM_SKIPLIST_H_
#define K2_STORAGE_LSM_SKIPLIST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace k2::lsm {

struct LsmValue {
  double x = 0.0;
  double y = 0.0;
};

class SkipList {
 public:
  SkipList() : rng_(0x5eed5eedULL), head_(NewNode(0, LsmValue{}, kMaxLevel)) {}

  /// Inserts or overwrites.
  void Put(uint64_t key, const LsmValue& value);

  /// Looks up the strictly increasing `keys` in one forward pass: each
  /// search resumes from the previous key's predecessors (a finger search)
  /// instead of the head, so a key costs O(log d) steps for a gap of d
  /// entries. Skips key i when skip(i); calls found(i, value) for each key
  /// present.
  template <typename Skip, typename Found>
  void GetSorted(const std::vector<uint64_t>& keys, Skip&& skip,
                 Found&& found) const {
    const Node* pred[kMaxLevel];
    for (int i = 0; i < max_level_; ++i) pred[i] = head_;
    // Of two nodes before the key, the one further along.
    const auto later = [this](const Node* a, const Node* b) {
      if (a == head_) return b;
      if (b == head_) return a;
      return a->key < b->key ? b : a;
    };
    for (size_t k = 0; k < keys.size(); ++k) {
      if (skip(k)) continue;
      const uint64_t key = keys[k];
      // Climb while the level above still has a node before the key.
      int level = 0;
      while (level + 1 < max_level_ &&
             pred[level + 1]->next[level + 1] != nullptr &&
             pred[level + 1]->next[level + 1]->key < key) {
        ++level;
      }
      const Node* node = head_;
      for (int i = level; i >= 0; --i) {
        node = later(node, pred[i]);
        while (node->next[i] != nullptr && node->next[i]->key < key) {
          node = node->next[i];
        }
        pred[i] = node;
      }
      const Node* at = node->next[0];
      if (at != nullptr && at->key == key) found(k, at->value);
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// In-order visit of entries with lo <= key <= hi.
  template <typename Fn>
  void Scan(uint64_t lo, uint64_t hi, Fn&& fn) const {
    const Node* node = FindGreaterOrEqual(lo);
    while (node != nullptr && node->key <= hi) {
      fn(node->key, node->value);
      node = node->next[0];
    }
  }

  /// In-order visit of all entries.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Node* n = head_->next[0]; n != nullptr; n = n->next[0]) {
      fn(n->key, n->value);
    }
  }

  void Clear();

 private:
  static constexpr int kMaxLevel = 16;

  struct Node {
    uint64_t key;
    LsmValue value;
    int level;
    Node* next[1];  // over-allocated to `level` entries
  };

  Node* NewNode(uint64_t key, const LsmValue& value, int level);
  void FreeAll();
  const Node* FindGreaterOrEqual(uint64_t key) const;
  int RandomLevel();

  Rng rng_;
  Node* head_;
  int max_level_ = 1;
  size_t size_ = 0;

 public:
  ~SkipList() { FreeAll(); }
  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;
};

}  // namespace k2::lsm

#endif  // K2_STORAGE_LSM_SKIPLIST_H_
