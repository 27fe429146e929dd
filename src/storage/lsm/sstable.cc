#include "storage/lsm/sstable.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/crc32c.h"
#include "storage/store.h"

namespace k2::lsm {

namespace {

// One on-disk entry: key + x + y, 24 bytes.
constexpr size_t kEntrySize = 24;
constexpr size_t kIndexEntrySize = 28;  // first_key + last_key + offset + count
// index_offset + bloom_offset + num_entries + meta_crc + version + magic.
constexpr size_t kFooterSize = 8 + 8 + 8 + 4 + 4 + 8;

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

}  // namespace

// ---------------------------------------------------------------------------
// SSTableBuilder
// ---------------------------------------------------------------------------

SSTableBuilder::SSTableBuilder(Env* env, std::string path)
    : env_(env), path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  auto file = env_->NewWritableFile(tmp_path_);
  if (!file.ok()) {
    deferred_error_ = file.status();
  } else {
    file_ = file.MoveValue();
  }
}

SSTableBuilder::SSTableBuilder(std::string path)
    : SSTableBuilder(Env::Default(), std::move(path)) {}

SSTableBuilder::~SSTableBuilder() {
  // Abandoned build (error or never Finished): drop the temporary file so
  // nothing half-written survives under any name. Best-effort.
  if (file_ != nullptr) {
    file_->Close();
    env_->RemoveFile(tmp_path_);
  }
}

void SSTableBuilder::Reserve(size_t expected_keys) {
  bloom_reserve_ = expected_keys;
  all_entries_.reserve(expected_keys);
}

Status SSTableBuilder::Add(uint64_t key, const LsmValue& value) {
  K2_RETURN_NOT_OK(deferred_error_);
  if (has_last_key_ && key <= last_key_) {
    return Status::Invalid("SSTable keys must be strictly increasing");
  }
  last_key_ = key;
  has_last_key_ = true;
  block_.emplace_back(key, value);
  all_entries_.emplace_back(key, value);
  ++num_entries_;
  if (block_.size() >= kBlockEntries) return FlushBlock();
  return Status::OK();
}

Status SSTableBuilder::FlushBlock() {
  if (block_.empty()) return Status::OK();
  IndexEntry entry;
  entry.first_key = block_.front().first;
  entry.last_key = block_.back().first;
  entry.offset = offset_;
  entry.count = static_cast<uint32_t>(block_.size());
  scratch_.clear();
  for (const auto& [key, value] : block_) {
    AppendRaw(&scratch_, &key, 8);
    AppendRaw(&scratch_, &value.x, 8);
    AppendRaw(&scratch_, &value.y, 8);
  }
  Status s = file_->Append(scratch_.data(), scratch_.size());
  if (!s.ok()) {
    deferred_error_ = s;
    return s;
  }
  offset_ += block_.size() * kEntrySize;
  index_.push_back(entry);
  block_.clear();
  return Status::OK();
}

Status SSTableBuilder::Finish() {
  K2_RETURN_NOT_OK(deferred_error_);
  K2_RETURN_NOT_OK(FlushBlock());

  // Metadata region (index + bloom), checksummed as one unit so a torn
  // write anywhere in it is detected by Open().
  const uint64_t index_offset = offset_;
  std::string meta;
  for (const IndexEntry& e : index_) {
    AppendRaw(&meta, &e.first_key, 8);
    AppendRaw(&meta, &e.last_key, 8);
    AppendRaw(&meta, &e.offset, 8);
    AppendRaw(&meta, &e.count, 4);
  }
  const uint64_t bloom_offset = index_offset + index_.size() * kIndexEntrySize;

  BloomFilter bloom(std::max<size_t>(bloom_reserve_, all_entries_.size()));
  for (const auto& [key, value] : all_entries_) bloom.Add(key);
  const uint32_t num_hashes = bloom.num_hashes_for_disk();
  const uint32_t num_words = static_cast<uint32_t>(bloom.words().size());
  AppendRaw(&meta, &num_hashes, 4);
  AppendRaw(&meta, &num_words, 4);
  AppendRaw(&meta, bloom.words().data(), num_words * 8);

  const uint32_t meta_crc = Crc32c(meta.data(), meta.size());
  AppendRaw(&meta, &index_offset, 8);
  AppendRaw(&meta, &bloom_offset, 8);
  AppendRaw(&meta, &num_entries_, 8);
  AppendRaw(&meta, &meta_crc, 4);
  AppendRaw(&meta, &kSstFormatVersion, 4);
  AppendRaw(&meta, &kSstMagic, 8);

  Status s = file_->Append(meta.data(), meta.size());
  if (s.ok()) s = file_->Sync();
  if (s.ok()) s = file_->Close();
  if (!s.ok()) {
    deferred_error_ = s;
    return s;  // dtor removes the tmp file
  }
  file_ = nullptr;
  // The commit point: until this rename lands, the table does not exist.
  s = env_->RenameFile(tmp_path_, path_);
  if (!s.ok()) {
    deferred_error_ = s;
    env_->RemoveFile(tmp_path_);
  }
  return s;
}

// ---------------------------------------------------------------------------
// SSTable (reader)
// ---------------------------------------------------------------------------

SSTable::File::~File() {
  if (map != nullptr) munmap(const_cast<char*>(map), map_size);
  if (fd >= 0) ::close(fd);
}

namespace {

/// Reads exactly `n` bytes at `offset`. pread keeps no file position, so any
/// number of handles can read through one shared descriptor.
Status PreadFully(int fd, void* buf, size_t n, uint64_t offset,
                  const std::string& path, const char* what) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::pread(fd, p, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      return Status::IOError(std::string(what) + " read failed on " + path);
    }
    p += got;
    n -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<SSTable>> SSTable::Open(const std::string& path,
                                               uint64_t seq, IoStats* stats) {
  auto file = std::make_shared<File>();
  file->path = path;
  // k2-lint: allow(lsm-io-through-env): read path — Env only shims
  // write-path IO for fault injection; reads go straight to the OS + mmap.
  file->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file->fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(file->fd, &st) != 0) {
    return Status::IOError("size probe failed on " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < kFooterSize) {
    return Status::Invalid("truncated SSTable (no footer) in " + path);
  }

  char footer[kFooterSize];
  K2_RETURN_NOT_OK(PreadFully(file->fd, footer, kFooterSize,
                              file_size - kFooterSize, path, "footer"));
  uint64_t index_offset, bloom_offset, num_entries, magic;
  uint32_t meta_crc, version;
  std::memcpy(&index_offset, footer, 8);
  std::memcpy(&bloom_offset, footer + 8, 8);
  std::memcpy(&num_entries, footer + 16, 8);
  std::memcpy(&meta_crc, footer + 24, 4);
  std::memcpy(&version, footer + 28, 4);
  std::memcpy(&magic, footer + 32, 8);
  if (magic != kSstMagic) {
    return Status::Invalid("bad SSTable magic in " + path);
  }
  if (version != kSstFormatVersion) {
    return Status::Invalid("unsupported SSTable version " +
                           std::to_string(version) + " in " + path);
  }
  const uint64_t meta_end = file_size - kFooterSize;
  if (index_offset > bloom_offset || bloom_offset > meta_end ||
      (bloom_offset - index_offset) % kIndexEntrySize != 0 ||
      meta_end - bloom_offset < 8) {
    return Status::Invalid("SSTable footer offsets out of range in " + path);
  }

  // Read the whole metadata region and verify its checksum before trusting
  // a single field of it.
  const size_t meta_size = static_cast<size_t>(meta_end - index_offset);
  std::vector<char> meta(meta_size);
  K2_RETURN_NOT_OK(
      PreadFully(file->fd, meta.data(), meta_size, index_offset, path,
                 "index"));
  if (Crc32c(meta.data(), meta.size()) != meta_crc) {
    return Status::Invalid("SSTable meta checksum mismatch in " + path);
  }

  file->num_entries = num_entries;
  const size_t num_blocks = (bloom_offset - index_offset) / kIndexEntrySize;
  file->index.resize(num_blocks);
  const char* p = meta.data();
  uint64_t counted = 0;
  for (IndexEntry& e : file->index) {
    std::memcpy(&e.first_key, p, 8);
    std::memcpy(&e.last_key, p + 8, 8);
    std::memcpy(&e.offset, p + 16, 8);
    std::memcpy(&e.count, p + 24, 4);
    p += kIndexEntrySize;
    if (e.offset + uint64_t{e.count} * kEntrySize > index_offset) {
      return Status::Invalid("SSTable block index out of range in " + path);
    }
    counted += e.count;
  }
  if (counted != num_entries) {
    return Status::Invalid("SSTable entry count mismatch in " + path);
  }

  uint32_t num_hashes, num_words;
  std::memcpy(&num_hashes, p, 4);
  std::memcpy(&num_words, p + 4, 4);
  p += 8;
  if (meta_end - bloom_offset != 8 + uint64_t{num_words} * 8) {
    return Status::Invalid("SSTable bloom size mismatch in " + path);
  }
  if (const char* bad = BloomFilter::HeaderError(num_words, num_hashes)) {
    return Status::Invalid(std::string("SSTable bloom header invalid (") +
                           bad + ") in " + path);
  }
  std::vector<uint64_t> words(num_words);
  std::memcpy(words.data(), p, size_t{num_words} * 8);
  file->bloom = BloomFilter::FromWords(std::move(words), num_hashes);

  if (!file->index.empty()) {
    file->min_key = file->index.front().first_key;
    file->max_key = file->index.back().last_key;
  }

  // Tables are immutable once built: map the whole file read-only so block
  // fetches are page-cache copies instead of syscalls. On mapping failure
  // the descriptor stays as the pread fallback path.
  void* map = mmap(nullptr, static_cast<size_t>(file_size), PROT_READ,
                   MAP_PRIVATE, file->fd, 0);
  if (map != MAP_FAILED) {
    file->map = static_cast<const char*>(map);
    file->map_size = static_cast<size_t>(file_size);
  }
  return std::unique_ptr<SSTable>(new SSTable(std::move(file), seq, stats));
}

std::unique_ptr<SSTable> SSTable::NewReader(IoStats* stats) const {
  std::unique_ptr<SSTable> reader(new SSTable(file_, seq_, stats));
  reader->tier_ = tier_;
  return reader;
}

Result<const std::vector<SSTable::Entry>*> SSTable::GetBlock(size_t b) {
  if (CachedBlock* cb = FindCached(b)) {
    cb->last_used = ++cache_clock_;
    if (stats_ != nullptr) ++stats_->pages_cached;
    return &cb->entries;
  }
  return LoadBlock(b);
}

Result<const std::vector<SSTable::Entry>*> SSTable::LoadBlock(size_t b) {
  // Evict the least recently used slot (empty slots sort first).
  CachedBlock* victim = &cache_[0];
  for (CachedBlock& cb : cache_) {
    if (cb.last_used < victim->last_used) victim = &cb;
  }
  const File& file = *file_;
  const IndexEntry& e = file.index[b];
  victim->index = -1;  // invalid while being overwritten
  victim->entries.resize(e.count);
  // Entry mirrors the on-disk block byte-for-byte, so the block decodes
  // with a single copy straight into the entry array.
  static_assert(sizeof(Entry) == kEntrySize &&
                std::is_trivially_copyable_v<Entry>);
  const size_t nbytes = e.count * kEntrySize;
  if (file.map != nullptr) {
    if (e.offset + nbytes > file.map_size) {
      return Status::IOError("block out of mapped range on " + file.path);
    }
    std::memcpy(victim->entries.data(), file.map + e.offset, nbytes);
  } else {
    K2_RETURN_NOT_OK(PreadFully(file.fd, victim->entries.data(), nbytes,
                                e.offset, file.path, "block"));
  }
  if (stats_ != nullptr) {
    // A fetch of anything but the next contiguous block repositions the
    // medium; sequential scans charge one seek for the whole run.
    if (static_cast<int64_t>(b) != last_fetched_block_ + 1) ++stats_->seeks;
    ++stats_->pages_read;
    stats_->bytes_read += nbytes;
  }
  last_fetched_block_ = static_cast<int64_t>(b);
  victim->index = static_cast<int64_t>(b);
  victim->last_used = ++cache_clock_;
  return &victim->entries;
}

Result<bool> SSTable::Get(uint64_t key, LsmValue* value, bool use_bloom) {
  if (!Overlaps(key, key)) return false;
  const std::vector<IndexEntry>& index = file_->index;
  // Binary search the resident index for the block whose last_key >= key.
  size_t lo = 0, hi = index.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (index[mid].last_key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == index.size() || index[lo].first_key > key) return false;
  // The bloom filter gates only the block fetch: when the candidate block
  // is already cached, probing the block directly is cheaper than probing
  // the filter — and the point queries of one GetPoints batch land in the
  // same block almost every time.
  const std::vector<Entry>* entries;
  if (CachedBlock* cb = FindCached(lo)) {
    cb->last_used = ++cache_clock_;
    if (stats_ != nullptr) ++stats_->pages_cached;
    entries = &cb->entries;
  } else {
    if (use_bloom && !file_->bloom.MayContain(key)) {
      if (stats_ != nullptr) {
        ++stats_->bloom_negative;
        ChargeTier(&stats_->tier_bloom_skipped);
      }
      return false;
    }
    K2_ASSIGN_OR_RETURN(entries, LoadBlock(lo));
  }
  if (stats_ != nullptr) {
    ++stats_->sstables_touched;
    ChargeTier(&stats_->tier_sstables_touched);
  }
  auto it = std::lower_bound(
      entries->begin(), entries->end(), key,
      [](const Entry& entry, uint64_t k) { return entry.key < k; });
  if (it != entries->end() && it->key == key) {
    *value = it->value;
    return true;
  }
  return false;
}

Status SSTable::Scan(uint64_t lo, uint64_t hi,
                     const std::function<void(uint64_t, const LsmValue&)>& fn) {
  if (!Overlaps(lo, hi)) return Status::OK();
  if (stats_ != nullptr) {
    ++stats_->sstables_touched;
    ChargeTier(&stats_->tier_sstables_touched);
  }
  // First block that can contain lo.
  const std::vector<IndexEntry>& index = file_->index;
  size_t b = 0, b_hi = index.size();
  while (b < b_hi) {
    const size_t mid = (b + b_hi) / 2;
    if (index[mid].last_key < lo) {
      b = mid + 1;
    } else {
      b_hi = mid;
    }
  }
  for (; b < index.size() && index[b].first_key <= hi; ++b) {
    K2_ASSIGN_OR_RETURN(const std::vector<Entry>* entries, GetBlock(b));
    for (const Entry& entry : *entries) {
      if (entry.key < lo) continue;
      if (entry.key > hi) return Status::OK();
      fn(entry.key, entry.value);
    }
  }
  return Status::OK();
}

}  // namespace k2::lsm
