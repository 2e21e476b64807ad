#include "common/bytes.hpp"

#include <array>

namespace dtr {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

// Hex digit values (either case), -1 for any other byte.  A table, not
// range tests: digests mix digits and letters at random, so range tests
// branch unpredictably on the dataset read path.
constexpr std::array<std::int8_t, 256> kHexValue = [] {
  std::array<std::int8_t, 256> v{};
  for (int c = 0; c < 256; ++c) {
    v[c] = c >= '0' && c <= '9'   ? static_cast<std::int8_t>(c - '0')
           : c >= 'a' && c <= 'f' ? static_cast<std::int8_t>(c - 'a' + 10)
           : c >= 'A' && c <= 'F' ? static_cast<std::int8_t>(c - 'A' + 10)
                                  : std::int8_t{-1};
  }
  return v;
}();

int hex_value(char c) { return kHexValue[static_cast<unsigned char>(c)]; }
}  // namespace

std::string to_hex(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return {};
  Bytes out(hex.size() / 2);
  if (!from_hex(hex, out)) return {};
  return out;
}

bool from_hex(std::string_view hex, std::span<std::uint8_t> out) {
  if (hex.size() != 2 * out.size()) return false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    int hi = hex_value(hex[2 * i]);
    int lo = hex_value(hex[2 * i + 1]);
    if ((hi | lo) < 0) return false;
    out[i] = static_cast<std::uint8_t>(hi << 4 | lo);
  }
  return true;
}

}  // namespace dtr
