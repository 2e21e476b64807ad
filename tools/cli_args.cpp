#include "cli_args.hpp"

#include <cstdlib>

namespace dtr::cli {

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      std::string body = token.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        options_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        options_[body] = argv[++i];
      } else {
        options_[body] = std::nullopt;
      }
    } else if (command_.empty()) {
      command_ = token;
    } else {
      positional_.push_back(token);
    }
  }
}

const std::string* Args::value(const std::string& name) const {
  read_[name] = true;
  auto it = options_.find(name);
  if (it == options_.end()) return nullptr;
  if (!it->second) throw InvalidValue(name, "");
  return &*it->second;
}

bool Args::has(const std::string& name) const {
  read_[name] = true;
  return options_.count(name) != 0;
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const std::string* raw = value(name);
  return raw == nullptr ? fallback : *raw;
}

double Args::get_f64(const std::string& name, double fallback) const {
  const std::string* raw = value(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(raw->c_str(), &end);
  if (raw->empty() || end != raw->c_str() + raw->size()) {
    throw InvalidValue(name, *raw);
  }
  return parsed;
}

std::uint32_t Args::get_ipv4(const std::string& name,
                             std::uint32_t fallback) const {
  const std::string* raw = value(name);
  if (raw == nullptr) return fallback;
  const auto parsed = parse_ipv4(*raw);
  if (!parsed) throw InvalidValue(name, *raw);
  return *parsed;
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : options_) {
    if (read_.count(name) == 0) out.push_back(name);
  }
  return out;
}

std::optional<std::uint32_t> parse_ipv4(const std::string& s) {
  std::uint32_t out = 0;
  std::size_t pos = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (pos >= s.size() || s[pos] != '.') return std::nullopt;
      ++pos;
    }
    if (pos >= s.size()) return std::nullopt;
    std::uint32_t value = 0;
    std::size_t digits = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      value = value * 10 + static_cast<std::uint32_t>(s[pos] - '0');
      ++pos;
      ++digits;
      if (value > 255 || digits > 3) return std::nullopt;
    }
    if (digits == 0) return std::nullopt;
    out = (out << 8) | value;
  }
  return pos == s.size() ? std::optional<std::uint32_t>(out) : std::nullopt;
}

}  // namespace dtr::cli
