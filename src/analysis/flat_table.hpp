// Open-addressing hash table for the analysis relations.
//
// CampaignStats keeps three kinds of exact tables whose entry counts grow
// with the dataset: the (file, client) relation sets behind Figures 4-7,
// the first-seen size of every file (Figure 8) and, when a figure is
// drawn, the per-file and per-client degree counts.  All of them are this
// one table: a flat array of slots, each holding the key, the value and an
// occupied flag (16 bytes for the relation sets and the file table), so no
// key value is reserved as an empty marker and hostile keys (0, ~0) are
// ordinary keys.  Lookups probe linearly from the slot that the key's hash
// picks; the capacity is a power of two and doubles when an insert would
// take the load past 3/4.  The capacity follows the number of entries
// only, never the value of a key.
//
// Iteration (for_each) walks the slots cyclically from just after an empty
// slot, so every probe cluster is visited from its first slot on, even one
// that wraps past the end of the array.  The order depends on the keys and
// on the order they were inserted; callers that need a sorted order must
// sort.  Inserting the entries in that order into a table reserved for the
// same count (the capacity follows the count only, and nothing is ever
// erased) rebuilds the same slot layout: a restored table iterates, and
// takes later inserts, exactly as the table it was saved from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dtr::analysis {

/// Value type of a table used as a set.
struct FlatNone {};

/// Hash of an integer key: the key itself.  FlatTable's Fibonacci step
/// mixes every key bit into the slot index.
struct FlatIntHash {
  std::size_t operator()(std::uint64_t k) const noexcept {
    return static_cast<std::size_t>(k);
  }
};

template <typename Key, typename Value, typename Hash>
class FlatTable {
 public:
  struct Slot {
    Key key{};
    Value value{};
    bool occupied = false;
  };

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Insert (key, value) unless `key` is present.  Returns the stored
  /// value and whether this call inserted it.  The pointer is valid until
  /// the next insert.
  std::pair<Value*, bool> try_emplace(const Key& key, const Value& value = {}) {
    if (!slots_.empty()) {
      const std::size_t i = probe(key);
      if (slots_[i].occupied) return {&slots_[i].value, false};
      if (!over_load(size_ + 1)) return {place(i, key, value), true};
    }
    grow(size_ + 1);
    return {place(probe(key), key, value), true};
  }

  /// Make room for `n` entries without growing on the way there.
  void reserve(std::size_t n) {
    if (over_load(n)) grow(n);
  }

  void clear() {
    slots_.clear();
    slots_.shrink_to_fit();
    size_ = 0;
  }

  /// Call f(key, value) for every entry, in cyclic slot order starting
  /// just after an empty slot (see the header comment).
  template <typename F>
  void for_each(F&& f) const {
    const std::size_t n = slots_.size();
    std::size_t start = 0;
    while (start < n && slots_[start].occupied) ++start;
    for (std::size_t k = 1; k <= n; ++k) {
      const Slot& s = slots_[(start + k) & (n - 1)];
      if (s.occupied) f(s.key, s.value);
    }
  }

 private:
  [[nodiscard]] bool over_load(std::size_t n) const {
    return n * 4 > slots_.size() * 3;
  }

  /// The slot holding `key`, or the empty slot where it belongs.  The
  /// load bound keeps at least one slot empty, so the probe ends.
  [[nodiscard]] std::size_t probe(const Key& key) const {
    // Fibonacci step: the slot index is the top bits of the product, so
    // every bit of the hash reaches it.
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(Hash{}(key)) * 0x9E3779B97F4A7C15ULL) >>
        shift_);
    while (slots_[i].occupied && !(slots_[i].key == key)) {
      i = (i + 1) & (slots_.size() - 1);
    }
    return i;
  }

  Value* place(std::size_t i, const Key& key, const Value& value) {
    slots_[i] = Slot{key, value, true};
    ++size_;
    return &slots_[i].value;
  }

  /// Rehash into the smallest power-of-two capacity (at least 16) that
  /// holds `n` entries within the load bound.
  void grow(std::size_t n) {
    std::size_t capacity = 16;
    unsigned bits = 4;
    while (n * 4 > capacity * 3) {
      capacity *= 2;
      ++bits;
    }
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    shift_ = 64 - bits;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.occupied) place(probe(s.key), s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace dtr::analysis
