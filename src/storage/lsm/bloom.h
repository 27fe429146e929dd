// Bloom filter over packed (t, oid) keys; one filter per SSTable lets point
// reads skip tables that cannot contain the key (counted in IoStats as
// bloom_negative).
#ifndef K2_STORAGE_LSM_BLOOM_H_
#define K2_STORAGE_LSM_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace k2::lsm {

class BloomFilter {
 public:
  /// Block geometry of the cache-line-blocked layout: all probes of one key
  /// stay inside a single 512-bit (64-byte) block.
  static constexpr size_t kBlockBits = 512;
  static constexpr size_t kBlockWords = kBlockBits / 64;

  /// Flag OR-ed into the serialized num_hashes word (see
  /// num_hashes_for_disk) marking the cache-line-blocked probe layout, the
  /// only layout there is. Every builder since the first blocked one has
  /// written it; a header without it is rejected on open.
  static constexpr uint32_t kBlockedLayoutFlag = 0x80000000u;

  /// Most probes per key the constructor chooses.
  static constexpr int kMaxHashes = 12;

  BloomFilter() = default;

  /// Sizes the filter for `expected_keys` at `bits_per_key` (default 10
  /// bits/key ~ 1% false positives). Always produces the blocked layout.
  explicit BloomFilter(size_t expected_keys, int bits_per_key = 10);

  void Add(uint64_t key);
  bool MayContain(uint64_t key) const;

  /// Serialized form: the raw word array (for embedding in SSTable files).
  const std::vector<uint64_t>& words() const { return words_; }
  int num_hashes() const { return num_hashes_; }
  /// num_hashes with the layout flag, as written to disk.
  uint32_t num_hashes_for_disk() const {
    return static_cast<uint32_t>(num_hashes_) | kBlockedLayoutFlag;
  }

  /// Why a serialized header (word count, raw on-disk num_hashes word) is
  /// not one the constructor writes, or nullptr when it is: the layout flag
  /// set, a power-of-two word count of at least kBlockWords, and
  /// 1..kMaxHashes probes. Probing any other shape would read outside the
  /// word array.
  static const char* HeaderError(size_t num_words, uint32_t num_hashes_word);

  /// Rebuilds from a serialized word array; `num_hashes_word` is the raw
  /// on-disk value. Requires HeaderError(words.size(), num_hashes_word) to
  /// be nullptr.
  static BloomFilter FromWords(std::vector<uint64_t> words,
                               uint32_t num_hashes_word);

  size_t num_bits() const { return words_.size() * 64; }

 private:
  static uint64_t Mix(uint64_t key);

  std::vector<uint64_t> words_;
  int num_hashes_ = 1;
};

}  // namespace k2::lsm

#endif  // K2_STORAGE_LSM_BLOOM_H_
