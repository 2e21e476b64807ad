#include "common/strings.hpp"

#include <array>
#include <cstdio>

namespace dtr {

namespace {

// ASCII-only on purpose: keywords, and with them search answers, must not
// depend on the process locale.
bool is_keyword_char(char c) {
  const auto u = static_cast<unsigned char>(c);
  return (u >= '0' && u <= '9') || (u >= 'a' && u <= 'z') ||
         (u >= 'A' && u <= 'Z');
}

char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ascii_lower(c);
  return out;
}

bool equals_ignore_case(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

std::vector<std::string> tokenize_keywords(std::string_view s,
                                           std::size_t min_len) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (current.size() >= min_len) tokens.push_back(current);
    current.clear();
  };
  for (char c : s) {
    if (is_keyword_char(c)) {
      current.push_back(ascii_lower(c));
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

bool has_keyword(std::string_view name, std::string_view word) {
  // A token equals the lowered word only if the word has the token's
  // length; a word holding a separator never equals a token, because
  // ascii_lower keeps separators and letters/digits apart.
  if (word.size() < kMinKeywordLength) return false;
  std::size_t i = 0;
  while (i < name.size()) {
    if (!is_keyword_char(name[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < name.size() && is_keyword_char(name[i])) ++i;
    if (i - start == word.size() &&
        equals_ignore_case(name.substr(start, i - start), word)) {
      return true;
    }
  }
  return false;
}

std::string with_thousands(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t leading = digits.size() % 3;
  if (leading == 0) leading = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - leading) % 3 == 0 && i >= leading) out.push_back(' ');
    out.push_back(digits[i]);
  }
  return out;
}

std::string human_size(std::uint64_t bytes) {
  static constexpr std::array<const char*, 5> kUnits = {"B", "KB", "MB", "GB",
                                                        "TB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < kUnits.size()) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f %s", value, kUnits[unit]);
  return buf;
}

}  // namespace dtr
