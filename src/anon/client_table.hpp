// clientID anonymisation (paper §2.4).
//
// The paper encodes each clientID by its order of appearance: the first
// clientID observed becomes 0, the second 1, and so on.  Hash- or
// shuffle-based schemes were rejected as reversible; order-of-appearance is
// both irreversible and convenient (anonymised IDs are dense integers in
// [0, N)).  Because *every* message carries at least one clientID, billions
// of lookups hit this table; the authors' solution is a flat array of 2^32
// integers (16 GB) indexed directly by the clientID.
//
// We provide:
//   * DirectClientTable  — the paper's structure.  It allocates its 16 GB
//     virtual array lazily in pages (materialised on first touch), which
//     preserves the O(1) direct memory access while the resident set
//     follows the number of distinct clients.  Cells are atomic and pages
//     are published by release store, so one writer can assign IDs while
//     any number of threads look them up (the parallel pipeline's workers).
//   * HashClientTable / TreeClientTable — the "classical data structures
//     (like hashtables or trees)" the paper dismisses as too slow and/or too
//     space consuming; kept as ablation baselines.
//
// All tables share the ClientAnonymiser interface so benches can swap them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "common/bytes.hpp"
#include "proto/opcodes.hpp"

namespace dtr::anon {

/// Anonymised clientID: dense order-of-appearance index.
using AnonClientId = std::uint32_t;

constexpr AnonClientId kClientNotSeen = 0xFFFFFFFFu;

/// Interface: map a clientID to its anonymised value, assigning the next
/// dense integer on first sight.
class ClientAnonymiser {
 public:
  virtual ~ClientAnonymiser() = default;

  /// Look up `id`, inserting it with the next free index if unseen.
  virtual AnonClientId anonymise(proto::ClientId id) = 0;

  /// Look up without inserting; kClientNotSeen if never observed.
  [[nodiscard]] virtual AnonClientId lookup(proto::ClientId id) const = 0;

  /// Number of distinct clientIDs observed so far.
  [[nodiscard]] virtual std::uint64_t distinct() const = 0;

  /// Approximate resident bytes of the structure (for the space ablation).
  [[nodiscard]] virtual std::uint64_t memory_bytes() const = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

/// The paper's direct-index array over the full 32-bit clientID space.
///
/// One writer, many readers: anonymise() and restore_state() belong to a
/// single writer thread; lookup(), distinct(), pages_allocated() and
/// memory_bytes() are safe from any thread concurrently with it.  Dense IDs
/// are assigned in the order the writer calls anonymise().  A reader racing
/// with an insertion may miss it (kClientNotSeen) but never sees a partial
/// value.
///
/// The page directory has two levels: a fixed top array of kLeafCount leaf
/// pointers, and leaves of kLeafEntries page pointers that the writer
/// allocates on first touch.  An empty table holds only the top array
/// (16 KiB); clientIDs packed into one 2^21-ID range touch one leaf.
class DirectClientTable final : public ClientAnonymiser {
 public:
  DirectClientTable() = default;
  ~DirectClientTable() override;

  DirectClientTable(const DirectClientTable&) = delete;
  DirectClientTable& operator=(const DirectClientTable&) = delete;

  AnonClientId anonymise(proto::ClientId id) override;
  [[nodiscard]] AnonClientId lookup(proto::ClientId id) const override;
  [[nodiscard]] std::uint64_t distinct() const override {
    return next_.load(std::memory_order_acquire);
  }
  /// Leaves plus pages; the fixed top array is not counted.
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] const char* name() const override { return "direct-array"; }

  /// Pages materialised so far (counted by the writer as it makes them,
  /// not scanned).
  [[nodiscard]] std::size_t pages_allocated() const {
    return page_count_.load(std::memory_order_relaxed);
  }

  /// Checkpoint codec: every populated (clientID, anon) cell in ascending
  /// clientID order.  Restore replaces the table's contents; it fails (and
  /// leaves the table unusable for resume) on duplicate cells or
  /// out-of-range indices.  Quiesce first: neither may overlap anonymise(),
  /// and restore_state() may not overlap lookup().
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

  /// Entries per page: 2^10 entries = 4 KiB per page.  Small pages keep the
  /// resident set proportional to the number of *distinct* clients even for
  /// adversarially scattered IDs (uniform over the whole 32-bit space the
  /// worst case is distinct * 4 KiB); the paper's deployment instead paid
  /// the flat 16 GB once.
  static constexpr std::uint32_t kPageBits = 10;
  static constexpr std::uint32_t kPageEntries = 1u << kPageBits;
  static constexpr std::uint32_t kPageCount = 1u << (32 - kPageBits);
  /// Page pointers per leaf: 2^11 = 16 KiB per leaf, 2^11 leaves.
  static constexpr std::uint32_t kLeafBits = 11;
  static constexpr std::uint32_t kLeafEntries = 1u << kLeafBits;
  static constexpr std::uint32_t kLeafCount = kPageCount / kLeafEntries;

 private:
  // A cell holds anon + 1, so a zero-filled page is all "not seen".
  using Cell = std::atomic<std::uint32_t>;
  using Leaf = std::array<std::atomic<Cell*>, kLeafEntries>;

  Cell* page_for(proto::ClientId id);  // writer only: creates on first touch
  void release_pages();

  // Raw leaves and pages published through atomic pointers; owned here.
  std::array<std::atomic<Leaf*>, kLeafCount> leaves_{};
  std::atomic<std::size_t> leaf_count_{0};  // non-null entries of leaves_
  std::atomic<std::size_t> page_count_{0};  // non-null page pointers
  std::atomic<AnonClientId> next_{0};
};

/// Baseline: std::unordered_map (the "too slow and/or too space consuming"
/// hashtable of §2.4).
class HashClientTable final : public ClientAnonymiser {
 public:
  AnonClientId anonymise(proto::ClientId id) override;
  [[nodiscard]] AnonClientId lookup(proto::ClientId id) const override;
  [[nodiscard]] std::uint64_t distinct() const override {
    return map_.size();
  }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] const char* name() const override { return "hashtable"; }

 private:
  std::unordered_map<proto::ClientId, AnonClientId> map_;
};

/// Baseline: std::map (red-black tree).
class TreeClientTable final : public ClientAnonymiser {
 public:
  AnonClientId anonymise(proto::ClientId id) override;
  [[nodiscard]] AnonClientId lookup(proto::ClientId id) const override;
  [[nodiscard]] std::uint64_t distinct() const override { return map_.size(); }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] const char* name() const override { return "tree"; }

 private:
  std::map<proto::ClientId, AnonClientId> map_;
};

}  // namespace dtr::anon
