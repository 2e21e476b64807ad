// IPv4 header encode/decode, fragmentation and reassembly.
//
// The paper's decoder re-assembles traffic at IP level (§2.3: among 14.1 B
// UDP packets, 2 981 were fragments).  We implement RFC 791 fragmentation on
// the sending side (a handful of announce datagrams exceed the MTU) and a
// bounded reassembly cache on the decoding side.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace dtr::net {

constexpr std::uint8_t kProtocolTcp = 6;
constexpr std::uint8_t kProtocolUdp = 17;
constexpr std::size_t kIpv4HeaderSize = 20;  // no options in this traffic
constexpr std::size_t kDefaultMtu = 1500;

struct Ipv4Packet {
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kProtocolUdp;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint16_t identification = 0;
  bool dont_fragment = false;
  bool more_fragments = false;
  std::uint16_t fragment_offset = 0;  // in 8-byte units, as on the wire
  Bytes payload;

  [[nodiscard]] bool is_fragment() const {
    return more_fragments || fragment_offset != 0;
  }
};

/// RFC 1071 ones-complement checksum over a byte range.
std::uint16_t internet_checksum(BytesView data);

/// Serialize one (possibly fragment) packet; computes the header checksum.
Bytes encode_ipv4(const Ipv4Packet& p);

/// Where a header that passed check_ipv4_header() ends, and where its
/// packet ends (`total_length`), both in bytes from the start of `data`.
struct Ipv4Extent {
  std::size_t header_length = 0;
  std::size_t total_length = 0;
};

/// The one set of IPv4 acceptance rules, shared by decode_ipv4() and
/// classify_frame(): a full header, version 4, IHL >= 5 within the
/// buffer, a valid header checksum and header <= total_length <= buffer.
/// Reads only the header bytes; returns nullopt when any rule fails.
std::optional<Ipv4Extent> check_ipv4_header(BytesView data);

/// Header-validating decode: returns nullopt when check_ipv4_header()
/// rejects the header.
std::optional<Ipv4Packet> decode_ipv4(BytesView data);

/// Split an oversized packet into MTU-sized fragments (RFC 791 §3.2).
/// Packets that already fit are returned unchanged as a single element.
std::vector<Ipv4Packet> fragment_ipv4(const Ipv4Packet& p,
                                      std::size_t mtu = kDefaultMtu);

/// Reassembly cache keyed by (src, dst, protocol, identification), with an
/// eviction deadline so lost fragments cannot pin memory forever.
class Ipv4Reassembler {
 public:
  struct Stats {
    std::uint64_t fragments_seen = 0;
    std::uint64_t reassembled = 0;
    std::uint64_t expired = 0;
    std::uint64_t overlapping = 0;  // overlapping/duplicate fragments dropped
  };

  explicit Ipv4Reassembler(SimTime timeout = 30 * kSecond)
      : timeout_(timeout) {}

  /// Feed one packet.  Non-fragments are returned immediately; fragments are
  /// buffered and the completed packet is returned when the last piece lands.
  std::optional<Ipv4Packet> push(const Ipv4Packet& p, SimTime now);

  /// Drop partially-reassembled packets older than the timeout.
  void expire(SimTime now);

  /// Register `net.reassembly.*` instruments in `registry` and record into
  /// them from now on (fragments, completions, expiries, overlaps, pending).
  void bind_metrics(obs::Registry& registry);

  /// Attach logging / flight-recorder channels (either may be null):
  /// expiries and overlapping fragments log rate-limited warnings, and
  /// expiries land in the flight recorder.
  void bind_telemetry(obs::Logger* log, obs::FlightRecorder* flight) {
    log_ = log;
    flight_ = flight;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

  /// Checkpoint codec: counters plus every partially-reassembled packet —
  /// fragments of one datagram may straddle a snapshot boundary.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

 private:
  struct Key {
    std::uint32_t src, dst;
    std::uint16_t id;
    std::uint8_t protocol;
    auto operator<=>(const Key&) const = default;
  };
  struct Partial {
    // offset (bytes) -> fragment payload; total_size known once the
    // last fragment (more_fragments == false) arrives.
    std::map<std::uint32_t, Bytes> pieces;
    std::optional<std::uint32_t> total_size;
    Ipv4Packet header_template;
    SimTime first_seen = 0;
  };

  std::optional<Ipv4Packet> try_complete(const Key& key, Partial& partial);

  struct Metrics {
    obs::Counter* fragments = nullptr;
    obs::Counter* reassembled = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* overlapping = nullptr;
    obs::Gauge* pending = nullptr;
  };

  SimTime timeout_;
  std::map<Key, Partial> pending_;
  Stats stats_;
  Metrics metrics_;
  obs::Logger* log_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace dtr::net
