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
//     follows the number of distinct clients.
//   * HashClientTable / TreeClientTable — the "classical data structures
//     (like hashtables or trees)" the paper dismisses as too slow and/or too
//     space consuming; kept as ablation baselines.
//
// All tables share the ClientAnonymiser interface so benches can swap them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

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
class DirectClientTable final : public ClientAnonymiser {
 public:
  DirectClientTable();

  AnonClientId anonymise(proto::ClientId id) override;
  [[nodiscard]] AnonClientId lookup(proto::ClientId id) const override;
  [[nodiscard]] std::uint64_t distinct() const override { return next_; }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] const char* name() const override { return "direct-array"; }

  /// Pages materialised so far (counted as they are made, not scanned).
  [[nodiscard]] std::size_t pages_allocated() const { return page_count_; }

  /// Checkpoint codec: every populated (clientID, anon) cell.  Restore
  /// replaces the table's contents; it fails (and leaves the table
  /// unusable for resume) on duplicate cells or out-of-range indices.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

  /// Entries per page: 2^10 entries = 4 KiB per page.  Small pages keep the
  /// resident set proportional to the number of *distinct* clients even for
  /// adversarially scattered IDs (uniform over the whole 32-bit space the
  /// worst case is distinct * 4 KiB); the paper's deployment instead paid
  /// the flat 16 GB once.
  static constexpr std::uint32_t kPageBits = 10;
  static constexpr std::uint32_t kPageEntries = 1u << kPageBits;
  static constexpr std::uint32_t kPageCount =
      1u << (32 - kPageBits);

 private:
  std::uint32_t* page_for(proto::ClientId id, bool create);

  // nullptr until first touch.
  std::vector<std::unique_ptr<std::uint32_t[]>> pages_;
  std::size_t page_count_ = 0;  // non-null entries of pages_
  AnonClientId next_ = 0;
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
