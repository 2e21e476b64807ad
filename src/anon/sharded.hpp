// Sharded anonymisation tables for the parallel pipeline.
//
// The paper's two §2.4 structures are both naturally index-partitioned: the
// clientID direct array by high bits of the 32-bit ID, the fileID store by
// its 16-bit bucket index (two bytes of the MD4 digest).  These variants
// keep the exact same layout — and the exact same checkpoint byte stream —
// as DirectClientTable / BucketedFileIdStore, but make reads safe from
// pipeline worker threads while the merge thread remains the only writer:
//
//   * ShardedClientTable: pages hold std::atomic cells behind atomic page
//     pointers, so worker lookup() is entirely lock-free.  Shards are the
//     top bits of the clientID and only partition the distinct-count
//     instrumentation; dense IDs are still assigned globally, in the order
//     the single writer calls anonymise().
//   * ShardedFileIdStore: the 65 536 sorted buckets are split into
//     contiguous shard ranges, each guarded by a shared_mutex.  Workers
//     take shared locks for lookup(); the writer upgrades to an exclusive
//     lock only on first sight of a fileID.
//
// Determinism is the point: anon IDs are a pure function of first-sight
// order on the *writer* thread, which processes messages in global sequence
// order.  Concurrent readers can race with an insertion and miss it — that
// is fine, because the pipeline treats a miss as "defer this message to the
// writer", never as an ID assignment.  Shard count therefore cannot change
// a single assigned ID, the XML output, or the checkpoint bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"

namespace dtr::anon {

/// Clamp an arbitrary shard request to a power of two in [1, 64].
std::size_t clamp_shard_count(std::size_t shards);

/// DirectClientTable layout with atomic cells: one writer, many readers.
class ShardedClientTable final : public ClientAnonymiser {
 public:
  using PageMode = DirectClientTable::PageMode;

  /// `mode`/`flat_space_bits` mirror DirectClientTable: flat mode
  /// materialises (and publishes) the pages below 2^flat_space_bits up
  /// front, before any worker thread exists, so lookups in that span never
  /// even touch the page-pointer acquire path's null branch.
  explicit ShardedClientTable(std::size_t shards = 8,
                              PageMode mode = PageMode::kPaged,
                              std::uint32_t flat_space_bits = 32);
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

  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }
  /// Distinct clientIDs whose high bits land in shard `s` (writer-counted).
  [[nodiscard]] std::uint64_t shard_distinct(std::size_t s) const {
    return shard_distinct_[s].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t pages_allocated() const;
  [[nodiscard]] PageMode page_mode() const { return mode_; }

  /// Byte-identical to DirectClientTable's codec: shard count and page
  /// mode are runtime concerns and never enter the snapshot.  Not
  /// thread-safe; quiesce first.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

  static constexpr std::uint32_t kPageBits = DirectClientTable::kPageBits;
  static constexpr std::uint32_t kPageEntries = DirectClientTable::kPageEntries;
  static constexpr std::uint32_t kPageCount = DirectClientTable::kPageCount;

 private:
  using Cell = std::atomic<std::uint32_t>;

  Cell* page_for(proto::ClientId id, bool create);
  [[nodiscard]] std::size_t shard_of(proto::ClientId id) const {
    // Widen before shifting: with one shard the shift is a full 32 bits,
    // which is UB on a 32-bit operand.
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(id) >> shard_shift_);
  }
  void release_pages();

  std::size_t shard_count_;
  unsigned shard_shift_;
  PageMode mode_;
  std::size_t flat_pages_ = 0;  // pages materialised up front in flat mode
  // Raw pages published through atomic pointers; owned by this table.
  std::vector<std::atomic<Cell*>> pages_;
  std::atomic<AnonClientId> next_{0};
  std::vector<std::atomic<std::uint64_t>> shard_distinct_;
};

/// BucketedFileIdStore layout with per-shard reader/writer locks.
class ShardedFileIdStore final : public FileIdAnonymiser {
 public:
  explicit ShardedFileIdStore(std::size_t shards = 8, unsigned index_byte_0 = 5,
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

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
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
  [[nodiscard]] std::size_t shard_of_bucket(std::size_t bucket) const {
    return bucket >> bucket_shift_;
  }

  unsigned b0_, b1_;
  unsigned bucket_shift_;
  std::vector<std::vector<Entry>> buckets_;
  std::vector<Shard> shards_;
  std::atomic<AnonFileId> next_{0};
};

}  // namespace dtr::anon
