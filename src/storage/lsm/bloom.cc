#include "storage/lsm/bloom.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace k2::lsm {

BloomFilter::BloomFilter(size_t expected_keys, int bits_per_key) {
  // Cache-line-blocked layout (cf. RocksDB): the first hash selects one
  // 512-bit block, all probes land inside it. A negative lookup — the common
  // case on the LSM point-read path, one MayContain per key per table —
  // costs one cache miss instead of num_hashes_. The bit count is rounded
  // to a power of two so block selection is a mask, not a 64-bit modulo.
  const size_t bits =
      std::bit_ceil(std::max<size_t>(kBlockBits, expected_keys * bits_per_key));
  words_.assign(bits / 64, 0);
  // k = ln(2) * bits/key, clamped to a sane range.
  num_hashes_ = std::clamp(
      static_cast<int>(std::round(bits_per_key * 0.6931)), 1, kMaxHashes);
}

uint64_t BloomFilter::Mix(uint64_t key) {
  // SplitMix64 finalizer: decorrelates nearby composite keys.
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ULL;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBULL;
  return key ^ (key >> 31);
}

void BloomFilter::Add(uint64_t key) {
  // Upper hash bits pick the block, lower bits walk inside it; the two
  // streams are nearly independent, which keeps the per-block FP rate close
  // to an unblocked filter of the same density.
  const uint64_t h = Mix(key);
  const uint64_t delta = (h >> 32) | 1;  // odd => cycles through all bits
  uint64_t bit = h;
  const size_t block = (h >> 17) & (words_.size() / kBlockWords - 1);
  uint64_t* word = words_.data() + block * kBlockWords;
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t pos = bit & (kBlockBits - 1);
    word[pos / 64] |= (1ULL << (pos % 64));
    bit += delta;
  }
}

bool BloomFilter::MayContain(uint64_t key) const {
  if (words_.empty()) return true;
  const uint64_t h = Mix(key);
  const uint64_t delta = (h >> 32) | 1;
  uint64_t bit = h;
  const size_t block = (h >> 17) & (words_.size() / kBlockWords - 1);
  const uint64_t* word = words_.data() + block * kBlockWords;
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t pos = bit & (kBlockBits - 1);
    if ((word[pos / 64] & (1ULL << (pos % 64))) == 0) return false;
    bit += delta;
  }
  return true;
}

const char* BloomFilter::HeaderError(size_t num_words,
                                    uint32_t num_hashes_word) {
  const uint32_t hashes = num_hashes_word & ~kBlockedLayoutFlag;
  if ((num_hashes_word & kBlockedLayoutFlag) == 0) {
    return "blocked-layout flag missing";
  }
  if (num_words < kBlockWords || !std::has_single_bit(num_words)) {
    return "word count not a power of two of at least 8";
  }
  if (hashes < 1 || hashes > static_cast<uint32_t>(kMaxHashes)) {
    return "hash count outside 1-12";
  }
  return nullptr;
}

BloomFilter BloomFilter::FromWords(std::vector<uint64_t> words,
                                   uint32_t num_hashes_word) {
  K2_CHECK(HeaderError(words.size(), num_hashes_word) == nullptr);
  BloomFilter f;
  f.words_ = std::move(words);
  f.num_hashes_ = static_cast<int>(num_hashes_word & ~kBlockedLayoutFlag);
  return f;
}

}  // namespace k2::lsm
