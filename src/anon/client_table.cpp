#include "anon/client_table.hpp"

#include <cstring>

namespace dtr::anon {

DirectClientTable::DirectClientTable() : pages_(kPageCount) {}

std::uint32_t* DirectClientTable::page_for(proto::ClientId id, bool create) {
  const std::uint32_t index = id >> kPageBits;
  auto& page = pages_[index];
  if (!page) {
    if (!create) return nullptr;
    page = std::make_unique<std::uint32_t[]>(kPageEntries);
    std::memset(page.get(), 0xFF, kPageEntries * sizeof(std::uint32_t));
    ++page_count_;
  }
  return page.get();
}

AnonClientId DirectClientTable::anonymise(proto::ClientId id) {
  std::uint32_t* page = page_for(id, /*create=*/true);
  std::uint32_t& cell = page[id & (kPageEntries - 1)];
  if (cell == kClientNotSeen) cell = next_++;
  return cell;
}

AnonClientId DirectClientTable::lookup(proto::ClientId id) const {
  const auto& page = pages_[id >> kPageBits];
  if (!page) return kClientNotSeen;
  return page[id & (kPageEntries - 1)];
}

std::uint64_t DirectClientTable::memory_bytes() const {
  return static_cast<std::uint64_t>(pages_allocated()) * kPageEntries *
         sizeof(std::uint32_t);
}

void DirectClientTable::save_state(ByteWriter& out) const {
  out.u32le(next_);
  for (std::uint32_t p = 0; p < kPageCount; ++p) {
    const auto& page = pages_[p];
    if (!page) continue;
    for (std::uint32_t o = 0; o < kPageEntries; ++o) {
      if (page[o] == kClientNotSeen) continue;
      out.u32le((p << kPageBits) | o);
      out.u32le(page[o]);
    }
  }
}

bool DirectClientTable::restore_state(ByteReader& in) {
  for (auto& page : pages_) page.reset();
  page_count_ = 0;
  next_ = 0;
  const std::uint32_t count = in.u32le();
  // Exactly `count` dense anon IDs were assigned, one pair each.
  if (static_cast<std::uint64_t>(count) * 8 > in.remaining()) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t id = in.u32le();
    const std::uint32_t anon = in.u32le();
    if (anon >= count) return false;
    std::uint32_t* page = page_for(id, /*create=*/true);
    std::uint32_t& cell = page[id & (kPageEntries - 1)];
    if (cell != kClientNotSeen) return false;  // duplicate clientID
    cell = anon;
  }
  next_ = count;
  return in.ok();
}

AnonClientId HashClientTable::anonymise(proto::ClientId id) {
  auto [it, inserted] =
      map_.try_emplace(id, static_cast<AnonClientId>(map_.size()));
  return it->second;
}

AnonClientId HashClientTable::lookup(proto::ClientId id) const {
  auto it = map_.find(id);
  return it == map_.end() ? kClientNotSeen : it->second;
}

std::uint64_t HashClientTable::memory_bytes() const {
  // Node-based buckets: key+value+next pointer per node plus bucket array.
  return map_.size() * (sizeof(proto::ClientId) + sizeof(AnonClientId) +
                        sizeof(void*) * 2) +
         map_.bucket_count() * sizeof(void*);
}

AnonClientId TreeClientTable::anonymise(proto::ClientId id) {
  auto [it, inserted] =
      map_.try_emplace(id, static_cast<AnonClientId>(map_.size()));
  return it->second;
}

AnonClientId TreeClientTable::lookup(proto::ClientId id) const {
  auto it = map_.find(id);
  return it == map_.end() ? kClientNotSeen : it->second;
}

std::uint64_t TreeClientTable::memory_bytes() const {
  // RB-tree node: 3 pointers + color + payload, rounded to allocator reality.
  return map_.size() * (sizeof(void*) * 4 + sizeof(proto::ClientId) +
                        sizeof(AnonClientId) + 8);
}

}  // namespace dtr::anon
