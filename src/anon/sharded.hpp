// Concurrent anonymisation tables for the parallel pipeline.
//
// The paper's two §2.4 structures are both naturally index-partitioned: the
// clientID direct array by high bits of the 32-bit ID, the fileID store by
// its 16-bit bucket index (two bytes of the MD4 digest).  These variants
// keep the exact same layout — and the exact same checkpoint byte stream —
// as DirectClientTable / BucketedFileIdStore, but make reads safe from
// pipeline worker threads while the merge thread remains the only writer:
//
//   * ShardedClientTable: pages hold std::atomic cells behind atomic page
//     pointers, so worker lookup() is entirely lock-free and the table
//     needs no shards at all (the name is kept for its sibling).  Dense IDs
//     are assigned in the order the single writer calls anonymise().
//   * ShardedFileIdStore: the 65 536 sorted buckets are split into
//     kShards contiguous ranges, each guarded by a shared_mutex.  Workers
//     take shared locks for lookup(); the writer upgrades to an exclusive
//     lock only on first sight of a fileID.
//
// Determinism is the point: anon IDs are a pure function of first-sight
// order on the *writer* thread, which processes messages in global sequence
// order.  Concurrent readers can race with an insertion and miss it — that
// is fine, because the pipeline treats a miss as "defer this message to the
// writer", never as an ID assignment.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <vector>

#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"

namespace dtr::anon {

/// DirectClientTable layout with atomic cells: one writer, many readers.
class ShardedClientTable final : public ClientAnonymiser {
 public:
  ShardedClientTable();
  ~ShardedClientTable() override;

  ShardedClientTable(const ShardedClientTable&) = delete;
  ShardedClientTable& operator=(const ShardedClientTable&) = delete;

  /// Writer-only (single thread): assign the next dense ID on first sight.
  AnonClientId anonymise(proto::ClientId id) override;
  /// Safe from any thread concurrently with the writer.
  [[nodiscard]] AnonClientId lookup(proto::ClientId id) const override;
  [[nodiscard]] std::uint64_t distinct() const override {
    return next_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] const char* name() const override { return "sharded-direct"; }

  /// Pages materialised so far (counted by the writer as it makes them,
  /// not scanned).
  [[nodiscard]] std::size_t pages_allocated() const {
    return page_count_.load(std::memory_order_relaxed);
  }

  /// Byte-identical to DirectClientTable's codec.  Not thread-safe;
  /// quiesce first.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

  static constexpr std::uint32_t kPageBits = DirectClientTable::kPageBits;
  static constexpr std::uint32_t kPageEntries = DirectClientTable::kPageEntries;
  static constexpr std::uint32_t kPageCount = DirectClientTable::kPageCount;

 private:
  using Cell = std::atomic<std::uint32_t>;

  Cell* page_for(proto::ClientId id, bool create);
  void release_pages();

  // Raw pages published through atomic pointers; owned by this table.
  std::vector<std::atomic<Cell*>> pages_;
  std::atomic<std::size_t> page_count_{0};  // non-null entries of pages_
  std::atomic<AnonClientId> next_{0};
};

/// BucketedFileIdStore layout with per-shard reader/writer locks.
class ShardedFileIdStore final : public FileIdAnonymiser {
 public:
  /// Lock stripes: contiguous bucket ranges, one shared_mutex each.
  static constexpr std::size_t kShards = 8;

  explicit ShardedFileIdStore(unsigned index_byte_0 = 5,
                              unsigned index_byte_1 = 11);

  ShardedFileIdStore(const ShardedFileIdStore&) = delete;
  ShardedFileIdStore& operator=(const ShardedFileIdStore&) = delete;

  /// Writer-only (single thread): insert on first sight under the shard's
  /// exclusive lock.
  AnonFileId anonymise(const FileId& id) override;
  /// Safe from any thread; takes the shard's shared lock.
  [[nodiscard]] AnonFileId lookup(const FileId& id) const override;
  [[nodiscard]] std::uint64_t distinct() const override {
    return next_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] const char* name() const override { return "sharded-bucketed"; }

  [[nodiscard]] std::uint64_t shard_distinct(std::size_t s) const {
    return shards_[s].distinct.load(std::memory_order_relaxed);
  }
  [[nodiscard]] unsigned index_byte_0() const { return b0_; }
  [[nodiscard]] unsigned index_byte_1() const { return b1_; }
  /// Entries in bucket `bucket` (< kBucketCount), as
  /// BucketedFileIdStore::bucket_size — the quantity Figure 3 plots.
  /// Safe from any thread; takes the shard's shared lock.
  [[nodiscard]] std::size_t bucket_size(std::size_t bucket) const;

  static constexpr std::size_t kBucketCount =
      BucketedFileIdStore::kBucketCount;

  /// Byte-identical to BucketedFileIdStore's codec (bucket-major entries).
  /// Not thread-safe; quiesce first.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

 private:
  struct Entry {
    FileId id;
    AnonFileId anon;
  };
  struct alignas(64) Shard {
    mutable std::shared_mutex mutex;
    std::atomic<std::uint64_t> distinct{0};
  };

  [[nodiscard]] std::size_t bucket_of(const FileId& id) const {
    return static_cast<std::size_t>(id.byte(b0_)) << 8 | id.byte(b1_);
  }
  [[nodiscard]] static std::size_t shard_of_bucket(std::size_t bucket) {
    return bucket / (kBucketCount / kShards);
  }

  unsigned b0_, b1_;
  std::vector<std::vector<Entry>> buckets_;
  std::array<Shard, kShards> shards_;
  std::atomic<AnonFileId> next_{0};
};

}  // namespace dtr::anon
