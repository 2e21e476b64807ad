// Small string utilities used across modules (tokenisation for the keyword
// index, number formatting for reports).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dtr {

/// Shortest token tokenize_keywords() keeps by default.
inline constexpr std::size_t kMinKeywordLength = 3;

/// Lowercase ASCII copy (eDonkey keyword matching is case-insensitive).
/// Only 'A'-'Z' change; every other byte, >= 0x80 included, is kept.
std::string to_lower(std::string_view s);

/// to_lower(a) == to_lower(b), without allocating.
bool equals_ignore_case(std::string_view a, std::string_view b);

/// Split a filename into search keywords the way eDonkey servers do:
/// anything but an ASCII letter or digit separates tokens; tokens are
/// lowercased and those shorter than `min_len` are dropped.
std::vector<std::string> tokenize_keywords(
    std::string_view s, std::size_t min_len = kMinKeywordLength);

/// Whether to_lower(word) is one of tokenize_keywords(name), without
/// allocating: the server's per-candidate keyword test.
bool has_keyword(std::string_view name, std::string_view word);

/// Thousands-separated decimal rendering, e.g. 8867052380 -> "8 867 052 380"
/// (the paper's typography). Used by report tables.
std::string with_thousands(std::uint64_t v);

/// Compact human size, e.g. 734003200 -> "700.0 MB".
std::string human_size(std::uint64_t bytes);

}  // namespace dtr
