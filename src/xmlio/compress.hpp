// LZSS codec for the chunks of a compressed dataset.
//
// The paper stores the dataset as XML because, "once compressed, [it] does
// not have a prohibitive space cost" (footnote 3).  This module provides
// the compression half of that story without external dependencies: a
// classic LZSS (sliding-window dictionary) codec with a hash-chain matcher.
// XML's repetitive structure compresses extremely well under it (typically
// 4-8x on dataset files).  It is not a file format of its own: the chunked
// container (chunked.hpp) compresses each chunk with it, and a .dtz file
// is always that container.
//
// Payload format ("DTZ1"): 4-byte magic, u64le original size, then token
// groups — one flag byte per 8 tokens (bit set = match), literals are raw
// bytes, matches are 3 bytes: u16le distance (1-based), u8 length-3.
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

/// Decompress; nullopt on malformed input (bad magic, truncated stream,
/// out-of-window reference, or size mismatch).
std::optional<Bytes> lz_decompress(BytesView compressed);

/// Convenience: compressed-size / original-size (1.0 when empty).
double lz_ratio(BytesView original, BytesView compressed);

}  // namespace dtr::xmlio
