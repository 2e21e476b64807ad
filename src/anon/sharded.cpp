#include "anon/sharded.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace dtr::anon {

ShardedClientTable::ShardedClientTable() : pages_(kPageCount) {
  for (auto& page : pages_) page.store(nullptr, std::memory_order_relaxed);
}

ShardedClientTable::~ShardedClientTable() { release_pages(); }

void ShardedClientTable::release_pages() {
  for (auto& page : pages_) {
    delete[] page.load(std::memory_order_relaxed);
    page.store(nullptr, std::memory_order_relaxed);
  }
  page_count_.store(0, std::memory_order_relaxed);
}

ShardedClientTable::Cell* ShardedClientTable::page_for(proto::ClientId id,
                                                       bool create) {
  auto& slot = pages_[id >> kPageBits];
  Cell* page = slot.load(std::memory_order_acquire);
  if (page == nullptr && create) {
    // Single writer: no CAS needed, just publish after initialisation.
    page = new Cell[kPageEntries];
    for (std::uint32_t i = 0; i < kPageEntries; ++i) {
      page[i].store(kClientNotSeen, std::memory_order_relaxed);
    }
    slot.store(page, std::memory_order_release);
    page_count_.store(page_count_.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }
  return page;
}

AnonClientId ShardedClientTable::anonymise(proto::ClientId id) {
  Cell* page = page_for(id, /*create=*/true);
  Cell& cell = page[id & (kPageEntries - 1)];
  std::uint32_t v = cell.load(std::memory_order_relaxed);
  if (v == kClientNotSeen) {
    v = next_.load(std::memory_order_relaxed);
    cell.store(v, std::memory_order_release);
    next_.store(v + 1, std::memory_order_release);
  }
  return v;
}

AnonClientId ShardedClientTable::lookup(proto::ClientId id) const {
  const Cell* page = pages_[id >> kPageBits].load(std::memory_order_acquire);
  if (page == nullptr) return kClientNotSeen;
  return page[id & (kPageEntries - 1)].load(std::memory_order_acquire);
}

std::uint64_t ShardedClientTable::memory_bytes() const {
  return static_cast<std::uint64_t>(pages_allocated()) * kPageEntries *
         sizeof(Cell);
}

void ShardedClientTable::save_state(ByteWriter& out) const {
  // Same stream as DirectClientTable: count, then (id, anon) pairs in
  // ascending clientID order.
  out.u32le(next_.load(std::memory_order_relaxed));
  for (std::uint32_t p = 0; p < kPageCount; ++p) {
    const Cell* page = pages_[p].load(std::memory_order_relaxed);
    if (page == nullptr) continue;
    for (std::uint32_t o = 0; o < kPageEntries; ++o) {
      const std::uint32_t v = page[o].load(std::memory_order_relaxed);
      if (v == kClientNotSeen) continue;
      out.u32le((p << kPageBits) | o);
      out.u32le(v);
    }
  }
}

bool ShardedClientTable::restore_state(ByteReader& in) {
  release_pages();
  next_.store(0, std::memory_order_relaxed);
  const std::uint32_t count = in.u32le();
  if (static_cast<std::uint64_t>(count) * 8 > in.remaining()) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t id = in.u32le();
    const std::uint32_t anon = in.u32le();
    if (anon >= count) return false;
    Cell* page = page_for(id, /*create=*/true);
    Cell& cell = page[id & (kPageEntries - 1)];
    if (cell.load(std::memory_order_relaxed) != kClientNotSeen) {
      return false;  // duplicate clientID
    }
    cell.store(anon, std::memory_order_relaxed);
  }
  next_.store(count, std::memory_order_release);
  return in.ok();
}

ShardedFileIdStore::ShardedFileIdStore(unsigned index_byte_0,
                                       unsigned index_byte_1)
    : b0_(index_byte_0), b1_(index_byte_1), buckets_(kBucketCount) {
  if (b0_ >= 16 || b1_ >= 16)
    throw std::out_of_range("ShardedFileIdStore: fileID has 16 bytes");
  if (b0_ == b1_)
    throw std::invalid_argument(
        "ShardedFileIdStore: index bytes must differ (a single byte only "
        "yields 256 distinct buckets)");
}

AnonFileId ShardedFileIdStore::anonymise(const FileId& id) {
  const std::size_t bucket_index = bucket_of(id);
  Shard& shard = shards_[shard_of_bucket(bucket_index)];
  auto& bucket = buckets_[bucket_index];
  const auto by_id = [](const Entry& e, const FileId& key) {
    return e.id < key;
  };
  {
    // try_lock first: the uncontended path must stay clock-free even on a
    // profiled thread (see obs/profiler.hpp's hot-path contract).
    std::shared_lock<std::shared_mutex> lock(shard.mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      obs::ProfScope prof(obs::ThreadState::kLockWait);
      lock.lock();
    }
    auto it = std::lower_bound(bucket.begin(), bucket.end(), id, by_id);
    if (it != bucket.end() && it->id == id) return it->anon;
  }
  // Single writer: nothing can have inserted between the two locks.
  const AnonFileId v = next_.load(std::memory_order_relaxed);
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      obs::ProfScope prof(obs::ThreadState::kLockWait);
      lock.lock();
    }
    auto it = std::lower_bound(bucket.begin(), bucket.end(), id, by_id);
    bucket.insert(it, Entry{id, v});
  }
  next_.store(v + 1, std::memory_order_release);
  shard.distinct.fetch_add(1, std::memory_order_relaxed);
  return v;
}

AnonFileId ShardedFileIdStore::lookup(const FileId& id) const {
  const std::size_t bucket_index = bucket_of(id);
  const Shard& shard = shards_[shard_of_bucket(bucket_index)];
  const auto& bucket = buckets_[bucket_index];
  std::shared_lock<std::shared_mutex> lock(shard.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    obs::ProfScope prof(obs::ThreadState::kLockWait);
    lock.lock();
  }
  auto it = std::lower_bound(
      bucket.begin(), bucket.end(), id,
      [](const Entry& e, const FileId& key) { return e.id < key; });
  if (it != bucket.end() && it->id == id) return it->anon;
  return kFileNotSeen;
}

std::size_t ShardedFileIdStore::bucket_size(std::size_t bucket) const {
  std::shared_lock<std::shared_mutex> lock(
      shards_[shard_of_bucket(bucket)].mutex);
  return buckets_[bucket].size();
}

std::uint64_t ShardedFileIdStore::memory_bytes() const {
  std::uint64_t total = kBucketCount * sizeof(std::vector<Entry>);
  for (const auto& bucket : buckets_)
    total += bucket.capacity() * sizeof(Entry);
  return total;
}

void ShardedFileIdStore::save_state(ByteWriter& out) const {
  // Same stream as BucketedFileIdStore: byte pair, count, entries in
  // bucket-major order.
  out.u8(static_cast<std::uint8_t>(b0_));
  out.u8(static_cast<std::uint8_t>(b1_));
  out.u64le(next_.load(std::memory_order_relaxed));
  for (const auto& bucket : buckets_) {
    for (const Entry& e : bucket) {
      out.raw(e.id.bytes.data(), e.id.bytes.size());
      out.u64le(e.anon);
    }
  }
}

bool ShardedFileIdStore::restore_state(ByteReader& in) {
  for (auto& bucket : buckets_) bucket.clear();
  for (auto& shard : shards_) shard.distinct.store(0, std::memory_order_relaxed);
  next_.store(0, std::memory_order_relaxed);
  if (in.u8() != b0_ || in.u8() != b1_) return false;
  const std::uint64_t count = in.u64le();
  if (count > in.remaining() / 24) return false;  // 16-byte id + u64 anon
  for (std::uint64_t i = 0; i < count; ++i) {
    Entry e;
    BytesView id = in.raw(e.id.bytes.size());
    if (!in.ok()) return false;
    std::copy(id.begin(), id.end(), e.id.bytes.begin());
    e.anon = in.u64le();
    if (e.anon >= count) return false;
    const std::size_t bucket_index = bucket_of(e.id);
    auto& bucket = buckets_[bucket_index];
    if (!bucket.empty() && !(bucket.back().id < e.id)) return false;
    bucket.push_back(e);
    shards_[shard_of_bucket(bucket_index)].distinct.fetch_add(
        1, std::memory_order_relaxed);
  }
  next_.store(count, std::memory_order_release);
  return in.ok();
}

}  // namespace dtr::anon
