#include "storage/lsm/skiplist.h"

#include <cstdlib>
#include <new>

namespace k2::lsm {

SkipList::Node* SkipList::NewNode(uint64_t key, const LsmValue& value,
                                  int level) {
  const size_t bytes = sizeof(Node) + sizeof(Node*) * (level - 1);
  Node* node = static_cast<Node*>(::operator new(bytes));
  node->key = key;
  node->value = value;
  node->level = level;
  for (int i = 0; i < level; ++i) node->next[i] = nullptr;
  return node;
}

void SkipList::FreeAll() {
  Node* n = head_;
  while (n != nullptr) {
    Node* next = n->next[0];
    ::operator delete(n);
    n = next;
  }
  head_ = nullptr;
}

void SkipList::Clear() {
  FreeAll();
  head_ = NewNode(0, LsmValue{}, kMaxLevel);
  max_level_ = 1;
  size_ = 0;
}

int SkipList::RandomLevel() {
  int level = 1;
  // p = 1/4 per extra level, as in LevelDB.
  while (level < kMaxLevel && (rng_.Next() & 3) == 0) ++level;
  return level;
}

void SkipList::Put(uint64_t key, const LsmValue& value) {
  Node* update[kMaxLevel];
  Node* node = head_;
  for (int i = max_level_ - 1; i >= 0; --i) {
    while (node->next[i] != nullptr && node->next[i]->key < key) {
      node = node->next[i];
    }
    update[i] = node;
  }
  Node* candidate = node->next[0];
  if (candidate != nullptr && candidate->key == key) {
    candidate->value = value;  // overwrite
    return;
  }
  const int level = RandomLevel();
  if (level > max_level_) {
    for (int i = max_level_; i < level; ++i) update[i] = head_;
    max_level_ = level;
  }
  Node* fresh = NewNode(key, value, level);
  for (int i = 0; i < level; ++i) {
    fresh->next[i] = update[i]->next[i];
    update[i]->next[i] = fresh;
  }
  ++size_;
}

const SkipList::Node* SkipList::FindGreaterOrEqual(uint64_t key) const {
  const Node* node = head_;
  for (int i = max_level_ - 1; i >= 0; --i) {
    while (node->next[i] != nullptr && node->next[i]->key < key) {
      node = node->next[i];
    }
  }
  return node->next[0];
}

}  // namespace k2::lsm
