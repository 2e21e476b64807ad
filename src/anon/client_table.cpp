#include "anon/client_table.hpp"

namespace dtr::anon {

DirectClientTable::~DirectClientTable() { release_pages(); }

void DirectClientTable::release_pages() {
  for (auto& slot : leaves_) {
    Leaf* leaf = slot.load(std::memory_order_relaxed);
    if (leaf == nullptr) continue;
    for (auto& page : *leaf) delete[] page.load(std::memory_order_relaxed);
    delete leaf;
    slot.store(nullptr, std::memory_order_relaxed);
  }
  leaf_count_.store(0, std::memory_order_relaxed);
  page_count_.store(0, std::memory_order_relaxed);
}

DirectClientTable::Cell* DirectClientTable::page_for(proto::ClientId id) {
  // Single writer: no CAS needed, just publish each leaf and page after
  // initialising it.
  const std::uint32_t p = id >> kPageBits;
  auto& leaf_slot = leaves_[p >> kLeafBits];
  Leaf* leaf = leaf_slot.load(std::memory_order_relaxed);
  if (leaf == nullptr) {
    leaf = new Leaf();  // all null
    leaf_slot.store(leaf, std::memory_order_release);
    leaf_count_.store(leaf_count_.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }
  auto& page_slot = (*leaf)[p & (kLeafEntries - 1)];
  Cell* page = page_slot.load(std::memory_order_relaxed);
  if (page == nullptr) {
    page = new Cell[kPageEntries]();  // all zero: not seen
    page_slot.store(page, std::memory_order_release);
    page_count_.store(page_count_.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }
  return page;
}

AnonClientId DirectClientTable::anonymise(proto::ClientId id) {
  Cell& cell = page_for(id)[id & (kPageEntries - 1)];
  std::uint32_t v = cell.load(std::memory_order_relaxed);
  if (v == 0) {
    v = next_.load(std::memory_order_relaxed) + 1;
    cell.store(v, std::memory_order_release);
    next_.store(v, std::memory_order_release);
  }
  return v - 1;
}

AnonClientId DirectClientTable::lookup(proto::ClientId id) const {
  const std::uint32_t p = id >> kPageBits;
  const Leaf* leaf = leaves_[p >> kLeafBits].load(std::memory_order_acquire);
  if (leaf == nullptr) return kClientNotSeen;
  const Cell* page =
      (*leaf)[p & (kLeafEntries - 1)].load(std::memory_order_acquire);
  if (page == nullptr) return kClientNotSeen;
  // An unseen cell holds 0, which wraps to kClientNotSeen.
  return page[id & (kPageEntries - 1)].load(std::memory_order_acquire) - 1;
}

std::uint64_t DirectClientTable::memory_bytes() const {
  return static_cast<std::uint64_t>(
             leaf_count_.load(std::memory_order_relaxed)) *
             sizeof(Leaf) +
         static_cast<std::uint64_t>(pages_allocated()) * kPageEntries *
             sizeof(Cell);
}

void DirectClientTable::save_state(ByteWriter& out) const {
  out.u32le(next_.load(std::memory_order_relaxed));
  for (std::uint32_t l = 0; l < kLeafCount; ++l) {
    const Leaf* leaf = leaves_[l].load(std::memory_order_relaxed);
    if (leaf == nullptr) continue;
    for (std::uint32_t s = 0; s < kLeafEntries; ++s) {
      const Cell* page = (*leaf)[s].load(std::memory_order_relaxed);
      if (page == nullptr) continue;
      const std::uint32_t base = ((l << kLeafBits) | s) << kPageBits;
      for (std::uint32_t o = 0; o < kPageEntries; ++o) {
        const std::uint32_t v = page[o].load(std::memory_order_relaxed);
        if (v == 0) continue;
        out.u32le(base | o);
        out.u32le(v - 1);
      }
    }
  }
}

bool DirectClientTable::restore_state(ByteReader& in) {
  release_pages();
  next_.store(0, std::memory_order_relaxed);
  const std::uint32_t count = in.u32le();
  // Exactly `count` dense anon IDs were assigned, one pair each.
  if (static_cast<std::uint64_t>(count) * 8 > in.remaining()) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t id = in.u32le();
    const std::uint32_t anon = in.u32le();
    if (anon >= count) return false;
    Cell& cell = page_for(id)[id & (kPageEntries - 1)];
    if (cell.load(std::memory_order_relaxed) != 0) {
      return false;  // duplicate clientID
    }
    cell.store(anon + 1, std::memory_order_relaxed);
  }
  next_.store(count, std::memory_order_release);
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
