#include "anon/fileid_store.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace dtr::anon {

BucketedFileIdStore::BucketedFileIdStore(unsigned index_byte_0,
                                         unsigned index_byte_1)
    : b0_(index_byte_0), b1_(index_byte_1), buckets_(kBucketCount) {
  if (b0_ >= 16 || b1_ >= 16)
    throw std::out_of_range("BucketedFileIdStore: fileID has 16 bytes");
  if (b0_ == b1_)
    throw std::invalid_argument(
        "BucketedFileIdStore: index bytes must differ (a single byte only "
        "yields 256 distinct buckets)");
}

namespace {

// try_lock first: the uncontended path must stay clock-free even on a
// profiled thread (see obs/profiler.hpp's hot-path contract).
template <typename Lock>
Lock lock_stripe(std::shared_mutex& mutex) {
  Lock lock(mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    obs::ProfScope prof(obs::ThreadState::kLockWait);
    lock.lock();
  }
  return lock;
}

}  // namespace

AnonFileId BucketedFileIdStore::anonymise(const FileId& id) {
  const std::size_t bucket_index = bucket_of(id);
  auto& bucket = buckets_[bucket_index];
  // The writer is the only thread that changes the store, so its probe
  // needs no lock and `it` stays valid until the insert below.
  auto it = std::lower_bound(
      bucket.begin(), bucket.end(), id,
      [](const Entry& e, const FileId& key) { return e.id < key; });
  if (it != bucket.end() && it->id == id) return it->anon;
  const AnonFileId v = next_.load(std::memory_order_relaxed);
  Shard& shard = shards_[shard_of_bucket(bucket_index)];
  {
    const auto lock =
        lock_stripe<std::unique_lock<std::shared_mutex>>(shard.mutex);
    bucket.insert(it, Entry{id, v});
  }
  next_.store(v + 1, std::memory_order_release);
  shard.distinct.fetch_add(1, std::memory_order_relaxed);
  return v;
}

AnonFileId BucketedFileIdStore::lookup(const FileId& id) const {
  const std::size_t bucket_index = bucket_of(id);
  const auto& bucket = buckets_[bucket_index];
  const auto lock = lock_stripe<std::shared_lock<std::shared_mutex>>(
      shards_[shard_of_bucket(bucket_index)].mutex);
  auto it = std::lower_bound(
      bucket.begin(), bucket.end(), id,
      [](const Entry& e, const FileId& key) { return e.id < key; });
  if (it != bucket.end() && it->id == id) return it->anon;
  return kFileNotSeen;
}

void BucketedFileIdStore::save_state(ByteWriter& out) const {
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

bool BucketedFileIdStore::restore_state(ByteReader& in) {
  for (auto& bucket : buckets_) bucket.clear();
  for (auto& shard : shards_) {
    shard.distinct.store(0, std::memory_order_relaxed);
  }
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

std::uint64_t BucketedFileIdStore::memory_bytes() const {
  std::uint64_t total = kBucketCount * sizeof(std::vector<Entry>);
  for (const auto& bucket : buckets_) total += bucket.capacity() * sizeof(Entry);
  return total;
}

CountHistogram BucketedFileIdStore::bucket_size_distribution() const {
  CountHistogram h;
  for (const auto& bucket : buckets_) h.add(bucket.size());
  return h;
}

std::size_t BucketedFileIdStore::largest_bucket() const {
  std::size_t best = 0;
  for (const auto& bucket : buckets_) best = std::max(best, bucket.size());
  return best;
}

std::size_t BucketedFileIdStore::largest_bucket_index() const {
  std::size_t best = 0, arg = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i].size() > best) {
      best = buckets_[i].size();
      arg = i;
    }
  }
  return arg;
}

AnonFileId SortedArrayFileIdStore::anonymise(const FileId& id) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, const FileId& key) { return e.id < key; });
  if (it != entries_.end() && it->id == id) return it->anon;
  it = entries_.insert(it, Entry{id, next_});
  return next_++;
}

AnonFileId SortedArrayFileIdStore::lookup(const FileId& id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, const FileId& key) { return e.id < key; });
  if (it != entries_.end() && it->id == id) return it->anon;
  return kFileNotSeen;
}

std::uint64_t SortedArrayFileIdStore::memory_bytes() const {
  return entries_.capacity() * sizeof(Entry);
}

AnonFileId HashFileIdStore::anonymise(const FileId& id) {
  auto [it, inserted] =
      map_.try_emplace(id, static_cast<AnonFileId>(map_.size()));
  return it->second;
}

AnonFileId HashFileIdStore::lookup(const FileId& id) const {
  auto it = map_.find(id);
  return it == map_.end() ? kFileNotSeen : it->second;
}

std::uint64_t HashFileIdStore::memory_bytes() const {
  return map_.size() *
             (sizeof(FileId) + sizeof(AnonFileId) + sizeof(void*) * 2) +
         map_.bucket_count() * sizeof(void*);
}

AnonFileId TreeFileIdStore::anonymise(const FileId& id) {
  auto [it, inserted] =
      map_.try_emplace(id, static_cast<AnonFileId>(map_.size()));
  return it->second;
}

AnonFileId TreeFileIdStore::lookup(const FileId& id) const {
  auto it = map_.find(id);
  return it == map_.end() ? kFileNotSeen : it->second;
}

std::uint64_t TreeFileIdStore::memory_bytes() const {
  return map_.size() * (sizeof(void*) * 4 + sizeof(FileId) +
                        sizeof(AnonFileId) + 8);
}

}  // namespace dtr::anon
