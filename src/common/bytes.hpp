// Byte-buffer primitives shared by every wire-format module.
//
// All eDonkey and network encodings in this project are little-endian on the
// application side (eDonkey wire format) and big-endian on the network side
// (ethernet/IP/UDP header fields), so both orders are provided explicitly.
// Readers are bounds-checked and never throw: out-of-range reads flip a
// sticky error flag that callers test once at the end of a decode, which is
// both faster and simpler to reason about than exception unwinding in the
// packet hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dtr {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Growable little/big-endian byte sink used by all encoders.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve_hint) { buf_.reserve(reserve_hint); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16le(std::uint16_t v) { put_le<2>(v); }
  void u32le(std::uint32_t v) { put_le<4>(v); }
  void u64le(std::uint64_t v) { put_le<8>(v); }

  void u16be(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32be(std::uint32_t v) {
    u16be(static_cast<std::uint16_t>(v >> 16));
    u16be(static_cast<std::uint16_t>(v));
  }

  void raw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  /// eDonkey length-prefixed string: u16le length then raw bytes, no NUL.
  void str16(std::string_view s) {
    u16le(static_cast<std::uint16_t>(s.size()));
    raw(s.data(), s.size());
  }

  /// Overwrite a previously written 16-bit big-endian field (checksum fixups).
  void patch_u16be(std::size_t offset, std::uint16_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }
  void patch_u32le(std::size_t offset, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_[offset + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] BytesView view() const { return buf_; }
  [[nodiscard]] const Bytes& bytes() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }

 private:
  /// One resize, then the N low bytes of `v` least significant first,
  /// whatever the host's byte order.
  template <std::size_t N>
  void put_le(std::uint64_t v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + N);
    std::uint8_t* p = buf_.data() + at;
    for (std::size_t i = 0; i < N; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  Bytes buf_;
};

/// Bounds-checked cursor over immutable bytes. On overrun, returns zeroes
/// and sets a sticky failure flag; decoders check `ok()` once when done.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16le() {
    if (!ensure(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }
  std::uint32_t u32le() {
    if (!ensure(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
  }
  std::uint64_t u64le() {
    if (!ensure(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 8;
    return v;
  }
  std::uint16_t u16be() {
    if (!ensure(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32be() {
    if (!ensure(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
  }

  /// Read `n` raw bytes; returns an empty view (and fails) on overrun.
  BytesView raw(std::size_t n) {
    if (!ensure(n)) return {};
    BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  std::string str16() {
    std::uint16_t n = u16le();
    BytesView v = raw(n);
    return std::string(reinterpret_cast<const char*>(v.data()), v.size());
  }
  void skip(std::size_t n) { (void)raw(n); }

  /// Mark the decode as failed without consuming input (semantic errors).
  void fail() { ok_ = false; }

 private:
  bool ensure(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Hex dump (lowercase, no separators) — used for digests and test diagnostics.
std::string to_hex(BytesView data);

/// Parse a hex string produced by to_hex(); returns empty on malformed input.
Bytes from_hex(std::string_view hex);

/// Parse exactly 2 * out.size() hex digits (either case) into `out` without
/// allocating.  False, with `out` partly written, on any other input.
bool from_hex(std::string_view hex, std::span<std::uint8_t> out);

}  // namespace dtr
