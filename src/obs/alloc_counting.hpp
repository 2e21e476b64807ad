// Global operator-new counting, opt-in per binary.
//
// Include this header in EXACTLY ONE translation unit of a binary to
// replace the global allocation functions with counting versions that tick
// obs::detail::g_alloc_count / g_alloc_bytes (read back via
// obs::allocation_count() / allocation_bytes() — see obs/resource.hpp).
// It deliberately lives outside the obs library: replacing operator new in
// a library would silently hijack allocation in every linking binary,
// including sanitizer builds that interpose their own allocator.
//
// The donkeytrace CLI and donkeybench opt in; tests do not.
#pragma once

#include <cstdlib>
#include <new>

#include "obs/resource.hpp"

namespace dtr::obs::detail {

inline void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace dtr::obs::detail

void* operator new(std::size_t n) { return ::dtr::obs::detail::counted_alloc(n); }
void* operator new[](std::size_t n) {
  return ::dtr::obs::detail::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return ::dtr::obs::detail::counted_alloc_aligned(n,
                                                   static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::dtr::obs::detail::counted_alloc_aligned(n,
                                                   static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
