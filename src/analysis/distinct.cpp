#include "analysis/distinct.hpp"

#include <cstring>

namespace dtr::analysis {

BitsetDistinctCounter::BitsetDistinctCounter() {
  pages_.resize(1ull << (32 - kPageBits));
}

bool BitsetDistinctCounter::observe(std::uint32_t key) {
  const std::uint32_t page_index = key >> kPageBits;
  auto& page = pages_[page_index];
  if (!page) {
    page = std::make_unique<std::uint64_t[]>(kPageWords);
    std::memset(page.get(), 0, kPageWords * sizeof(std::uint64_t));
  }
  const std::uint32_t bit = key & ((1u << kPageBits) - 1);
  std::uint64_t& word = page[bit / 64];
  const std::uint64_t mask = 1ull << (bit % 64);
  if (word & mask) return false;
  word |= mask;
  ++distinct_;
  return true;
}

bool BitsetDistinctCounter::seen(std::uint32_t key) const {
  const auto& page = pages_[key >> kPageBits];
  if (!page) return false;
  const std::uint32_t bit = key & ((1u << kPageBits) - 1);
  return (page[bit / 64] >> (bit % 64)) & 1;
}

std::uint64_t BitsetDistinctCounter::memory_bytes() const {
  std::uint64_t pages = 0;
  for (const auto& p : pages_) pages += (p != nullptr);
  return pages * kPageWords * sizeof(std::uint64_t);
}

void BitsetDistinctCounter::save_state(ByteWriter& out) const {
  out.u64le(distinct_);
  for (std::size_t p = 0; p < pages_.size(); ++p) {
    const auto& page = pages_[p];
    if (!page) continue;
    for (std::uint32_t w = 0; w < kPageWords; ++w) {
      std::uint64_t word = page[w];
      while (word != 0) {
        const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(word));
        word &= word - 1;
        out.u32le(static_cast<std::uint32_t>(p << kPageBits) + w * 64 + bit);
      }
    }
  }
}

bool BitsetDistinctCounter::restore_state(ByteReader& in) {
  for (auto& page : pages_) page.reset();
  distinct_ = 0;
  const std::uint64_t count = in.u64le();
  if (count > in.remaining() / 4) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!observe(in.u32le())) return false;  // duplicate key
  }
  return in.ok() && distinct_ == count;
}

namespace {

template <typename K>
CountHistogram degree_histogram(
    const FlatTable<K, std::uint64_t, FlatIntHash>& degree) {
  CountHistogram h;
  degree.for_each([&](K, std::uint64_t count) { h.add(count); });
  return h;
}

}  // namespace

bool PairSetCounter::observe(std::uint64_t a, std::uint32_t b) {
  return set_.try_emplace(Key{a, b}).second;
}

void PairSetCounter::save_state(ByteWriter& out) const {
  out.u64le(set_.size());
  set_.for_each([&](const Key& k, FlatNone) {
    out.u64le(k.a());
    out.u32le(k.b);
  });
}

bool PairSetCounter::restore_state(ByteReader& in) {
  set_.clear();
  const std::uint64_t count = in.u64le();
  if (count > in.remaining() / 12) return false;
  set_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t a = in.u64le();
    const std::uint32_t b = in.u32le();
    if (!set_.try_emplace(Key{a, b}).second) return false;
  }
  return in.ok();
}

CountHistogram PairSetCounter::degree_of_a() const {
  FlatTable<std::uint64_t, std::uint64_t, FlatIntHash> degree;
  set_.for_each(
      [&](const Key& k, FlatNone) { ++*degree.try_emplace(k.a()).first; });
  return degree_histogram(degree);
}

CountHistogram PairSetCounter::degree_of_b() const {
  FlatTable<std::uint32_t, std::uint64_t, FlatIntHash> degree;
  set_.for_each(
      [&](const Key& k, FlatNone) { ++*degree.try_emplace(k.b).first; });
  return degree_histogram(degree);
}

}  // namespace dtr::analysis
