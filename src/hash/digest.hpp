// 128-bit digest value type shared by MD4 (eDonkey fileIDs) and MD5
// (anonymisation of strings).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "common/bytes.hpp"

namespace dtr {

/// A 16-byte digest.  eDonkey fileIDs are MD4 digests of file content; the
/// anonymised dataset stores MD5 digests of strings.  Byte order is the wire
/// order (the order the digest is transmitted in eDonkey messages).
struct Digest128 {
  std::array<std::uint8_t, 16> bytes{};

  auto operator<=>(const Digest128&) const = default;

  [[nodiscard]] std::string hex() const { return to_hex(bytes); }

  /// Parse 32 hex digits; anything else yields the all-zero digest.
  static Digest128 from_hex(std::string_view h) {
    Digest128 d;
    if (!dtr::from_hex(h, d.bytes)) return Digest128{};
    return d;
  }

  /// The i-th byte, as transmitted.  Used to pick anonymisation-bucket
  /// index bytes (paper §2.4).
  [[nodiscard]] std::uint8_t byte(std::size_t i) const { return bytes[i]; }

  /// First 8 bytes as a little-endian integer — handy for cheap ordering.
  [[nodiscard]] std::uint64_t prefix64() const {
    std::uint64_t v;
    std::memcpy(&v, bytes.data(), 8);
    return v;
  }
};

/// eDonkey fileID is an MD4 digest.
using FileId = Digest128;

struct DigestHasher {
  std::size_t operator()(const Digest128& d) const noexcept {
    // The digest is already uniform (unless forged); fold it.
    std::uint64_t a, b;
    std::memcpy(&a, d.bytes.data(), 8);
    std::memcpy(&b, d.bytes.data() + 8, 8);
    return static_cast<std::size_t>(a ^ (b * 0x9E3779B97F4A7C15ULL));
  }
};

}  // namespace dtr
