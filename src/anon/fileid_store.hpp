// fileID anonymisation (paper §2.4).
//
// fileIDs are 128-bit MD4 digests, so the clientID direct-array trick does
// not apply.  The paper's structure: split the set into 65 536 sorted arrays
// indexed by two bytes of the fileID.  Because real fileIDs are supposed to
// be uniform, any byte pair should spread insertions evenly — but the
// authors found that indexing by the *first two* bytes produces two
// pathologically large arrays (index 0 and 256), revealing massive forged
// fileIDs in the wild; choosing a different byte pair restores balance
// (their Figure 3).  The index byte pair is therefore a constructor
// parameter here, and the bucket-size distribution is observable, so the
// fig3 bench can show both the pathology and the fix.
//
// Baselines for the ablation bench: one global sorted array (the paper's
// rejected strawman with O(n) insertion), a hashtable, and a tree.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/binning.hpp"
#include "common/bytes.hpp"
#include "hash/digest.hpp"

namespace dtr::anon {

using AnonFileId = std::uint64_t;

constexpr AnonFileId kFileNotSeen = ~0ULL;

class FileIdAnonymiser {
 public:
  virtual ~FileIdAnonymiser() = default;

  /// Map `id` to its order-of-appearance index, inserting if unseen.
  virtual AnonFileId anonymise(const FileId& id) = 0;

  /// Non-inserting lookup; kFileNotSeen if never observed.
  [[nodiscard]] virtual AnonFileId lookup(const FileId& id) const = 0;

  [[nodiscard]] virtual std::uint64_t distinct() const = 0;
  [[nodiscard]] virtual std::uint64_t memory_bytes() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// The paper's bucketed sorted-array store.
///
/// One writer, many readers: anonymise() and restore_state() belong to a
/// single writer thread; lookup() and distinct() are safe from any thread
/// concurrently with it.  The 65 536 buckets are split into kShards
/// contiguous ranges, each guarded by a shared_mutex.  Readers take the
/// shared lock; the writer probes its bucket with no lock (it is the only
/// thread that changes the store) and takes the exclusive lock only to
/// insert on first sight.  A reader racing with an insertion may miss it
/// (kFileNotSeen).
class BucketedFileIdStore final : public FileIdAnonymiser {
 public:
  /// `index_byte_0/1` select which fileID bytes form the 16-bit bucket
  /// index.  (0, 1) reproduces the paper's first, pathological attempt;
  /// their fix is "selecting two different bytes" — we default to (5, 11).
  explicit BucketedFileIdStore(unsigned index_byte_0 = 5,
                               unsigned index_byte_1 = 11);

  AnonFileId anonymise(const FileId& id) override;
  [[nodiscard]] AnonFileId lookup(const FileId& id) const override;
  [[nodiscard]] std::uint64_t distinct() const override {
    return next_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] const char* name() const override { return "bucketed-sorted"; }

  static constexpr std::size_t kBucketCount = 65536;
  /// Lock stripes: contiguous bucket ranges, one shared_mutex each.
  static constexpr std::size_t kShards = 8;

  /// Entries inserted into lock stripe `s` (< kShards).
  [[nodiscard]] std::uint64_t shard_distinct(std::size_t s) const {
    return shards_[s].distinct.load(std::memory_order_relaxed);
  }

  // Figure 3 inspection.  Not safe against a concurrent writer; quiesce
  // first.
  [[nodiscard]] std::size_t bucket_size(std::size_t bucket) const {
    return buckets_[bucket].size();
  }
  /// Histogram of bucket sizes — the quantity plotted in Figure 3.
  [[nodiscard]] CountHistogram bucket_size_distribution() const;
  [[nodiscard]] std::size_t largest_bucket() const;
  [[nodiscard]] std::size_t largest_bucket_index() const;

  [[nodiscard]] unsigned index_byte_0() const { return b0_; }
  [[nodiscard]] unsigned index_byte_1() const { return b1_; }

  /// Checkpoint codec: entries in bucket-major order, so restore rebuilds
  /// each sorted bucket with plain appends.  Restore fails when the
  /// snapshot was taken with a different index-byte pair.  Quiesce first:
  /// neither may overlap anonymise(), and restore_state() may not overlap
  /// lookup().
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

/// Strawman: one global sorted array; dichotomic search is fast but every
/// insertion shifts O(n) entries ("insertion has a prohibitive cost").
class SortedArrayFileIdStore final : public FileIdAnonymiser {
 public:
  AnonFileId anonymise(const FileId& id) override;
  [[nodiscard]] AnonFileId lookup(const FileId& id) const override;
  [[nodiscard]] std::uint64_t distinct() const override { return next_; }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] const char* name() const override { return "sorted-array"; }

 private:
  struct Entry {
    FileId id;
    AnonFileId anon;
  };
  std::vector<Entry> entries_;
  AnonFileId next_ = 0;
};

class HashFileIdStore final : public FileIdAnonymiser {
 public:
  AnonFileId anonymise(const FileId& id) override;
  [[nodiscard]] AnonFileId lookup(const FileId& id) const override;
  [[nodiscard]] std::uint64_t distinct() const override { return map_.size(); }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] const char* name() const override { return "hashtable"; }

 private:
  std::unordered_map<FileId, AnonFileId, DigestHasher> map_;
};

class TreeFileIdStore final : public FileIdAnonymiser {
 public:
  AnonFileId anonymise(const FileId& id) override;
  [[nodiscard]] AnonFileId lookup(const FileId& id) const override;
  [[nodiscard]] std::uint64_t distinct() const override { return map_.size(); }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] const char* name() const override { return "tree"; }

 private:
  std::map<FileId, AnonFileId> map_;
};

}  // namespace dtr::anon
