// Client behaviour profiles.
//
// The paper's client-side findings that this module is calibrated to:
//   * Figure 6 — files provided per client: heavy-tailed but NOT a power
//     law, with "an unexpected large number of clients providing a few
//     thousands of files", attributed to client-software limits (maximum
//     files per shared directory).  We model that with share-cap plateaus.
//   * Figure 7 — files asked per client: several regimes plus "a clear peak
//     for the number of peers asking for 52 files", attributed to a query
//     cap in a widely used client.  We model a popular client version that
//     stops at exactly 52 distinct files.
//   * §2.4 — forged fileIDs concentrated on a few prefixes ("a majority of
//     fileID start with 0 or 256"), i.e. polluters [12].  A small polluter
//     fraction announces forged IDs with first bytes 0x00 0x00 or 0x01 0x00.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "hash/digest.hpp"
#include "proto/opcodes.hpp"

namespace dtr::workload {

/// What kind of client software/usage pattern a client exhibits.
enum class ClientKind : std::uint8_t {
  kCasual,      ///< few shares, few searches
  kCollector,   ///< shares a lot (may hit the directory cap)
  kCapped52,    ///< popular client build: asks for exactly 52 distinct files
  kScanner,     ///< crawls the network asking about very many files
  kPolluter,    ///< announces forged fileIDs (index pollution)
};

const char* client_kind_name(ClientKind k);

struct PopulationConfig {
  std::uint32_t client_count = 10'000;
  double casual_fraction = 0.780;
  double collector_fraction = 0.120;
  double capped52_fraction = 0.070;
  double scanner_fraction = 0.015;
  double polluter_fraction = 0.015;

  double reachable_fraction = 0.72;  // high-ID clients

  // Shares (files provided), per kind.
  double casual_share_alpha = 2.05;     // power-law exponent
  std::uint32_t casual_share_max = 300;
  // Collector tail heavy enough that a visible fraction of collectors
  // exceeds the software caps — Figure 6's "unexpected large number of
  // clients providing a few thousands of files" needs them.
  double collector_share_alpha = 1.30;
  std::uint32_t collector_share_max = 20'000;
  // Directory caps that produce Fig 6's plateau bump.  A collector whose
  // natural share count exceeds a cap is clamped to it.
  std::vector<std::uint32_t> share_caps = {2'000, 3'000, 5'000};
  double share_cap_adoption = 0.75;  // fraction of collectors running capped software

  // Asks (distinct files asked for), per kind.
  double casual_ask_alpha = 1.9;
  std::uint32_t casual_ask_max = 2'000;
  std::uint32_t capped_ask_value = 52;
  double scanner_ask_alpha = 1.25;
  std::uint32_t scanner_ask_max = 100'000;

  // Polluters.
  std::uint32_t polluter_forged_files_min = 500;
  std::uint32_t polluter_forged_files_max = 4'000;

  // Sessions.
  double mean_sessions = 2.2;            // sessions per client over the campaign
  double search_per_ask = 0.9;           // P(a wanted file triggers a keyword search)
  double stat_ping_per_session = 1.0;    // management pings per session
};

/// Immutable per-client plan, generated deterministically from the seed.
struct ClientProfile {
  proto::ClientId ip = 0;          // unique public IPv4
  bool reachable = true;           // high ID vs low ID
  ClientKind kind = ClientKind::kCasual;
  std::uint32_t shares = 0;        // # catalog files provided
  std::uint32_t asks = 0;          // # distinct files asked for
  std::uint32_t forged_files = 0;  // polluters only
  std::uint32_t sessions = 1;
};

class ClientPopulation {
 public:
  ClientPopulation(const PopulationConfig& config, std::uint64_t seed);

  [[nodiscard]] const ClientProfile& client(std::size_t i) const {
    return clients_[i];
  }
  [[nodiscard]] std::size_t size() const { return clients_.size(); }
  [[nodiscard]] const PopulationConfig& config() const { return config_; }

  /// Summary counts by kind (for reports/tests).
  [[nodiscard]] std::vector<std::size_t> kind_counts() const;

 private:
  ClientProfile make_profile(Rng& rng, std::uint32_t serial);

  PopulationConfig config_;
  std::vector<ClientProfile> clients_;
};

/// Forged fileID generator: IDs whose two first bytes are 0x00 0x00 or
/// 0x01 0x00, so that first-two-byte bucketing maps them to anonymisation
/// arrays 0 and 256 — the paper's observed pathology.
FileId make_forged_file_id(Rng& rng);

}  // namespace dtr::workload
