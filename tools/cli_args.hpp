// Minimal command-line argument parser for the donkeytrace CLI.
// Supports `--name value`, `--name=value` and boolean `--flag` forms; the
// first non-flag token is the subcommand, further bare tokens are
// positional.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace dtr::cli {

/// A typed option whose value does not parse (including a flag given with
/// no value); what() is "invalid value for --NAME: 'VALUE'".
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

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;
  /// Typed getters: `fallback` when the option is absent; InvalidValue
  /// when it is present but does not parse.
  [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_f64(const std::string& name, double fallback) const;
  /// Dotted IPv4, host order.
  [[nodiscard]] std::uint32_t get_ipv4(const std::string& name,
                                       std::uint32_t fallback) const;

  /// Options that were passed but never read — typo detection.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  /// The option's value, or null when absent; marks the option read.
  [[nodiscard]] const std::string* value(const std::string& name) const;

  std::string command_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> read_;
};

/// Parse dotted IPv4 ("1.2.3.4") to host-order u32; nullopt on bad input.
std::optional<std::uint32_t> parse_ipv4(const std::string& s);

}  // namespace dtr::cli
