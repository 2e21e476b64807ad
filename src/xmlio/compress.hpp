// LZSS codec for the chunks of a compressed dataset.
//
// The paper stores the dataset as XML because, "once compressed, [it] does
// not have a prohibitive space cost" (footnote 3).  This module provides
// the compression half of that story without external dependencies: a
// classic LZSS (sliding-window dictionary) codec with a hash-chain matcher.
// XML's repetitive structure compresses well under it: a campaign's
// dataset (95,718,351 bytes at donkeybench's campaign_flash defaults)
// becomes a 27,594,765-byte container, 3.5x.  It is not a file format of
// its own: the chunked container (chunked.hpp) compresses each chunk with
// it, and a .dtz file is always that container.
//
// Payload format ("DTZ1"): 4-byte magic, u64le original size, then token
// groups — one flag byte per 8 tokens (bit set = match), literals are raw
// bytes, matches are 3 bytes: u16le distance - 1, u8 length - kLzMinMatch.
//
// There is one decoder, lz_decompress_into: it writes straight into a
// caller-owned buffer with kLzDecodeSlack spare bytes, copies a match whose
// distance is at least 8 in 8-byte steps (which may run up to 12 bytes
// past the match, into bytes not yet decoded or into the slack) and a
// closer, overlapping one byte by byte.  Away from the ends of its input
// and output it decodes a whole flag group with no bounds checks but the
// distance, copying each run of literals as one 8-byte word.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"

namespace dtr::xmlio {

constexpr std::size_t kLzWindow = 65536;  // max match distance
constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzMaxMatch = 258;  // kLzMinMatch + 254

/// Compress `data`.  Output is never more than input + input/8 + 16 bytes.
Bytes lz_compress(BytesView data);

/// Hash-chain matcher state for lz_compress: ~1 MiB of chain tables that
/// would otherwise be allocated and zeroed per call.  A scratch object may
/// be reused across calls (each call re-initialises the chains, reusing the
/// capacity); the chunked writer recycles them through an ObjectPool so a
/// compressor thread touches the allocator once, not once per chunk.
struct LzScratch {
  std::vector<std::int64_t> head;
  std::vector<std::int64_t> prev;
};

/// lz_compress with caller-owned matcher state (identical output bytes).
Bytes lz_compress(BytesView data, LzScratch& scratch);

/// Worst-case compressed size for `n` input bytes (container included).
constexpr std::size_t lz_bound(std::size_t n) { return n + n / 8 + 16; }

/// Spare bytes lz_decompress_into needs past the declared size.
constexpr std::size_t kLzDecodeSlack = 16;

/// The original size a payload declares; nullopt on bad magic, a short
/// header, or a size no payload of this length can decode to.
std::optional<std::uint64_t> lz_decoded_size(BytesView compressed);

/// Decode `compressed` into `out`, which must hold lz_decoded_size() +
/// kLzDecodeSlack bytes; the first lz_decoded_size() bytes are the result
/// and the slack holds junk.  False on malformed input (bad header,
/// truncated token, a distance beyond the bytes produced, or a match
/// running past the declared size); `out` then holds junk.  Bytes after
/// the token that completes the declared size are ignored.
bool lz_decompress_into(BytesView compressed, std::uint8_t* out);

/// lz_decompress_into into a fresh buffer; nullopt on malformed input.
std::optional<Bytes> lz_decompress(BytesView compressed);

/// Convenience: compressed-size / original-size (1.0 when empty).
double lz_ratio(BytesView original, BytesView compressed);

}  // namespace dtr::xmlio
