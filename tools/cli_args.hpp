// Minimal command-line argument parser for the donkeytrace CLI.
// Supports `--name value`, `--name=value` and boolean `--flag` forms; the
// first non-flag token is the subcommand, further bare tokens are
// positional.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace dtr::cli {

/// An option whose value does not parse or does not fit its field, or a
/// valued option given without a value; what() is
/// "invalid value for --NAME: 'VALUE'" (VALUE empty in the last case).
class InvalidValue : public std::runtime_error {
 public:
  InvalidValue(const std::string& name, const std::string& value)
      : std::runtime_error("invalid value for --" + name + ": '" + value +
                           "'") {}
};

class Args {
 public:
  Args(int argc, char** argv);

  [[nodiscard]] const std::string& command() const { return command_; }
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// The only reader of a flag (`--background`): true when given, with or
  /// without a value.
  [[nodiscard]] bool has(const std::string& name) const;
  /// Getters: `fallback` when the option is absent; InvalidValue when it is
  /// given without a value or, for the typed ones, when its value does not
  /// parse or does not fit the returned type.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;
  /// An unsigned integer in the range of T, the field it fills.
  template <class T>
  [[nodiscard]] T get_uint(const std::string& name, T fallback) const {
    static_assert(std::is_unsigned_v<T>);
    const std::string* raw = value(name);
    if (raw == nullptr) return fallback;
    T parsed = 0;
    const char* end = raw->data() + raw->size();
    auto [ptr, ec] = std::from_chars(raw->data(), end, parsed);
    if (ec != std::errc{} || ptr != end) throw InvalidValue(name, *raw);
    return parsed;
  }
  [[nodiscard]] double get_f64(const std::string& name, double fallback) const;
  /// Dotted IPv4, host order.
  [[nodiscard]] std::uint32_t get_ipv4(const std::string& name,
                                       std::uint32_t fallback) const;

  /// Options that were passed but never read — typo detection.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  /// The option's value, or null when absent; InvalidValue when it was
  /// given without one.  Marks the option read.
  [[nodiscard]] const std::string* value(const std::string& name) const;

  std::string command_;
  std::vector<std::string> positional_;
  /// nullopt: given without a value.
  std::map<std::string, std::optional<std::string>> options_;
  mutable std::map<std::string, bool> read_;
};

/// Parse dotted IPv4 ("1.2.3.4") to host-order u32; nullopt on bad input.
std::optional<std::uint32_t> parse_ipv4(const std::string& s);

}  // namespace dtr::cli
