#include "xmlio/compress.hpp"

#include <cstring>

namespace dtr::xmlio {

namespace {

constexpr std::uint8_t kMagic[4] = {'D', 'T', 'Z', '1'};
constexpr std::size_t kHeaderBytes = 12;  // magic + u64le original size

// Hash-chain matcher state: head[hash] = most recent position with that
// 4-byte hash; prev[pos & mask] = previous position in the chain.
constexpr std::size_t kHashBits = 16;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::size_t kChainMask = kLzWindow - 1;
constexpr int kMaxChainSteps = 64;  // match-effort bound

inline std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

}  // namespace

Bytes lz_compress(BytesView data) {
  LzScratch scratch;
  return lz_compress(data, scratch);
}

Bytes lz_compress(BytesView data, LzScratch& scratch) {
  ByteWriter out(data.size() / 2 + 32);
  out.raw(kMagic, 4);
  out.u64le(data.size());

  if (data.empty()) return std::move(out).take();

  scratch.head.assign(kHashSize, -1);
  scratch.prev.assign(kLzWindow, -1);
  std::vector<std::int64_t>& head = scratch.head;
  std::vector<std::int64_t>& prev = scratch.prev;

  Bytes pending;          // token payload bytes for the current flag group
  std::uint8_t flags = 0;
  int flag_count = 0;

  auto flush_group = [&] {
    out.u8(flags);
    out.raw(pending);
    pending.clear();
    flags = 0;
    flag_count = 0;
  };

  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;

    if (pos + kLzMinMatch <= data.size()) {
      std::uint32_t h = hash4(data.data() + pos);
      std::int64_t candidate = head[h];
      int steps = 0;
      while (candidate >= 0 && steps < kMaxChainSteps &&
             pos - static_cast<std::size_t>(candidate) <= kLzWindow) {
        const auto cpos = static_cast<std::size_t>(candidate);
        std::size_t len = 0;
        std::size_t max_len = std::min(kLzMaxMatch, data.size() - pos);
        while (len < max_len && data[cpos + len] == data[pos + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = pos - cpos;
          if (len == max_len) break;
        }
        candidate = prev[cpos & kChainMask];
        ++steps;
      }
    }

    if (best_len >= kLzMinMatch) {
      flags |= static_cast<std::uint8_t>(1u << flag_count);
      pending.push_back(static_cast<std::uint8_t>(best_dist - 1));
      pending.push_back(static_cast<std::uint8_t>((best_dist - 1) >> 8));
      pending.push_back(static_cast<std::uint8_t>(best_len - kLzMinMatch));
      // Insert all covered positions into the chains.
      std::size_t end = pos + best_len;
      for (; pos < end; ++pos) {
        if (pos + kLzMinMatch <= data.size()) {
          std::uint32_t h = hash4(data.data() + pos);
          prev[pos & kChainMask] = head[h];
          head[h] = static_cast<std::int64_t>(pos);
        }
      }
    } else {
      pending.push_back(data[pos]);
      if (pos + kLzMinMatch <= data.size()) {
        std::uint32_t h = hash4(data.data() + pos);
        prev[pos & kChainMask] = head[h];
        head[h] = static_cast<std::int64_t>(pos);
      }
      ++pos;
    }

    if (++flag_count == 8) flush_group();
  }
  if (flag_count > 0) flush_group();
  return std::move(out).take();
}

std::optional<std::uint64_t> lz_decoded_size(BytesView compressed) {
  if (compressed.size() < kHeaderBytes) return std::nullopt;
  if (std::memcmp(compressed.data(), kMagic, 4) != 0) return std::nullopt;
  ByteReader r(compressed.subspan(4));
  const std::uint64_t original_size = r.u64le();
  // Refuse absurd sizes relative to the input (a 12-byte file cannot claim
  // terabytes: max expansion per token is kLzMaxMatch bytes from 3).
  if (original_size > (compressed.size() + 1) * kLzMaxMatch) {
    return std::nullopt;
  }
  return original_size;
}

namespace {

/// Copy a match of `len` (>= kLzMinMatch) bytes from `dist` back.  At a
/// distance of 8 or more, each 8-byte step reads bytes that are already
/// decoded (from + 8 <= op); the first two steps always run, so up to 12
/// bytes past the match are written: later tokens overwrite them, and past
/// the declared size they land in the slack.  A closer source overlaps the
/// bytes being written and is copied byte by byte.
inline std::uint8_t* copy_match(std::uint8_t* op, std::size_t dist,
                                std::size_t len) {
  const std::uint8_t* from = op - dist;
  std::uint8_t* const end = op + len;
  if (dist >= 8) {
    std::memcpy(op, from, 8);
    std::memcpy(op + 8, from + 8, 8);
    for (op += 16, from += 16; op < end; op += 8, from += 8) {
      std::memcpy(op, from, 8);
    }
  } else {
    while (op < end) *op++ = *from++;
  }
  return end;
}

inline std::size_t match_distance(const std::uint8_t* ip) {
  return (static_cast<std::size_t>(ip[0]) |
          (static_cast<std::size_t>(ip[1]) << 8)) +
         1;
}

inline std::size_t match_length(const std::uint8_t* ip) {
  return static_cast<std::size_t>(ip[2]) + kLzMinMatch;
}

// A whole group (flag byte excluded) reads at most 8 * 3 bytes and writes
// at most 8 * kLzMaxMatch.  The group decoder also reads and writes 8
// literal bytes at a time and lets a match copy run 12 bytes past its end,
// so it runs only with this much input and output room left.
constexpr std::size_t kGroupInput = 8 * 3 + 8;
constexpr std::size_t kGroupOutput = 8 * kLzMaxMatch + 16;

}  // namespace

bool lz_decompress_into(BytesView compressed, std::uint8_t* out) {
  const std::optional<std::uint64_t> size = lz_decoded_size(compressed);
  if (!size) return false;
  const std::uint8_t* ip = compressed.data() + kHeaderBytes;
  const std::uint8_t* const in_end = compressed.data() + compressed.size();
  std::uint8_t* op = out;
  std::uint8_t* const out_end = out + *size;

  while (op < out_end) {
    if (ip == in_end) return false;  // truncated: no flag byte
    unsigned flags = *ip++;
    if (static_cast<std::size_t>(in_end - ip) >= kGroupInput &&
        static_cast<std::size_t>(out_end - op) >= kGroupOutput) {
      // The group can neither run out of input nor reach the declared
      // size, so only the distances need checking.  Each run of literals
      // is one 8-byte copy; bit 8 marks the end of the group.
      flags |= 0x100;
      for (;;) {
        const auto literals = static_cast<unsigned>(__builtin_ctz(flags));
        std::memcpy(op, ip, 8);
        op += literals;
        ip += literals;
        flags >>= literals;
        if (flags == 1) break;
        flags >>= 1;
        const std::size_t dist = match_distance(ip);
        const std::size_t len = match_length(ip);
        ip += 3;
        if (dist > static_cast<std::size_t>(op - out)) return false;
        op = copy_match(op, dist, len);
      }
      continue;
    }
    // Near either end: one token at a time, checking every bound.
    for (int bit = 0; bit < 8 && op < out_end; ++bit, flags >>= 1) {
      if ((flags & 1) == 0) {
        if (ip == in_end) return false;  // truncated literal
        *op++ = *ip++;
        continue;
      }
      if (in_end - ip < 3) return false;  // truncated match
      const std::size_t dist = match_distance(ip);
      const std::size_t len = match_length(ip);
      ip += 3;
      // A distance beyond the bytes produced, or a match past the end.
      if (dist > static_cast<std::size_t>(op - out)) return false;
      if (len > static_cast<std::size_t>(out_end - op)) return false;
      op = copy_match(op, dist, len);
    }
  }
  return true;
}

std::optional<Bytes> lz_decompress(BytesView compressed) {
  const std::optional<std::uint64_t> size = lz_decoded_size(compressed);
  if (!size) return std::nullopt;
  Bytes out(*size + kLzDecodeSlack);
  if (!lz_decompress_into(compressed, out.data())) return std::nullopt;
  out.resize(*size);
  return out;
}

double lz_ratio(BytesView original, BytesView compressed) {
  if (original.empty()) return 1.0;
  return static_cast<double>(compressed.size()) /
         static_cast<double>(original.size());
}

}  // namespace dtr::xmlio
