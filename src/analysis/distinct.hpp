// Exact distinct counting.
//
// The paper calls out "unusual and sometimes striking challenges (like for
// instance counting the number of distinct fileID observed)" in 9 billion
// messages.  Two exact counters are provided:
//   * BitsetDistinctCounter — for 32-bit keys (IP addresses, clientIDs):
//     a lazily-paged bitmap over the 2^32 key space, 512 MiB worst case,
//     kilobytes for clustered key sets; O(1) per observation.
//   * PairSetCounter — for (file, client) relation dedup, used to build the
//     "clients per file" / "files per client" distributions exactly.  The
//     pairs live in a FlatTable (flat_table.hpp): one 16-byte slot per
//     pair plus free slots (load at most 3/4), linear probing, no per-pair
//     allocation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/flat_table.hpp"
#include "common/binning.hpp"
#include "common/bytes.hpp"

namespace dtr::analysis {

/// Exact distinct counter over 32-bit keys via a paged bitmap.
class BitsetDistinctCounter {
 public:
  BitsetDistinctCounter();

  /// Observe a key; returns true if it was new.
  bool observe(std::uint32_t key);

  [[nodiscard]] bool seen(std::uint32_t key) const;
  [[nodiscard]] std::uint64_t distinct() const { return distinct_; }
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Checkpoint codec: the set bits, as keys.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

  static constexpr std::uint32_t kPageBits = 18;  // 2^18 bits = 32 KiB/page
  static constexpr std::uint32_t kPageWords = (1u << kPageBits) / 64;

 private:
  std::vector<std::unique_ptr<std::uint64_t[]>> pages_;
  std::uint64_t distinct_ = 0;
};

/// Deduplicated (a, b) pair relation with per-side degree histograms:
/// exactly the data behind Figures 4-7 (a = file, b = client).
class PairSetCounter {
 public:
  /// Record the pair; returns true if it was new.
  bool observe(std::uint64_t a, std::uint32_t b);

  [[nodiscard]] std::uint64_t pairs() const { return set_.size(); }

  /// Checkpoint codec: the deduplicated pairs in table order (restore does
  /// not depend on it — the degree histograms are computed from the set,
  /// not from history).
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

  /// Histogram of "number of b's per a" values -> "number of a's with that
  /// many b's" (e.g. clients providing each file -> files per count).
  [[nodiscard]] CountHistogram degree_of_a() const;
  /// Symmetric: number of a's per b.
  [[nodiscard]] CountHistogram degree_of_b() const;

 private:
  // `a` as two 32-bit halves: 12 bytes at 4-byte alignment, so a slot
  // (key, empty value, occupied flag) is 16 bytes.
  struct Key {
    std::uint32_t a_lo;
    std::uint32_t a_hi;
    std::uint32_t b;
    Key() = default;
    Key(std::uint64_t a, std::uint32_t b_)
        : a_lo(static_cast<std::uint32_t>(a)),
          a_hi(static_cast<std::uint32_t>(a >> 32)),
          b(b_) {}
    [[nodiscard]] std::uint64_t a() const {
      return (static_cast<std::uint64_t>(a_hi) << 32) | a_lo;
    }
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = k.a() * 0x9E3779B97F4A7C15ULL;
      h ^= (static_cast<std::uint64_t>(k.b) + 0xD1B54A32D192ED03ULL +
            (h << 6) + (h >> 2));
      return static_cast<std::size_t>(h * 0xBF58476D1CE4E5B9ULL >> 7);
    }
  };
  using Set = FlatTable<Key, FlatNone, KeyHash>;
  static_assert(sizeof(Set::Slot) == 16);

  Set set_;
};

}  // namespace dtr::analysis
