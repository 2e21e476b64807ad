// The decoding pipeline of §2.3: captured ethernet frames are checked,
// re-assembled at IP level, the UDP layer is stripped, and eDonkey
// datagrams go through structural validation then effective decoding.
//
// Statistics mirror the paper's §2.3 accounting: UDP packets captured,
// fragments, not-well-formed packets, eDonkey messages handled, and the
// fraction not decoded (split into structural vs effective failures —
// the paper reports 0.68 % undecoded, 78 % of those structural).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "common/clock.hpp"
#include "net/classify.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "proto/codec.hpp"
#include "sim/frames.hpp"

namespace dtr::decode {

/// A successfully decoded application-level message with its transport
/// context (needed by the anonymiser: the peer's address *is* data).
struct DecodedMessage {
  SimTime time = 0;
  std::uint32_t src_ip = 0;
  std::uint16_t src_port = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t dst_port = 0;
  proto::Message message;
};

using MessageSink = std::function<void(DecodedMessage&&)>;

struct DecodeStats {
  std::uint64_t frames = 0;
  std::uint64_t non_ipv4_frames = 0;      // ARP etc.
  std::uint64_t bad_ip_packets = 0;       // truncated / bad checksum
  std::uint64_t tcp_packets = 0;          // captured but not decoded (§2.2)
  std::uint64_t other_ip_packets = 0;     // ICMP, ...
  std::uint64_t udp_packets = 0;
  std::uint64_t udp_fragments = 0;        // paper: 2 981 of 14.1 B
  std::uint64_t udp_malformed = 0;        // paper: 169 not well-formed
  std::uint64_t edonkey_messages = 0;     // handled eDonkey datagrams
  std::uint64_t decoded = 0;
  std::uint64_t undecoded_structural = 0;
  std::uint64_t undecoded_effective = 0;

  bool operator==(const DecodeStats&) const = default;

  [[nodiscard]] std::uint64_t undecoded() const {
    return undecoded_structural + undecoded_effective;
  }
  [[nodiscard]] double undecoded_fraction() const {
    return edonkey_messages == 0 ? 0.0
                                 : static_cast<double>(undecoded()) /
                                       static_cast<double>(edonkey_messages);
  }
  [[nodiscard]] double structural_share_of_undecoded() const {
    return undecoded() == 0 ? 0.0
                            : static_cast<double>(undecoded_structural) /
                                  static_cast<double>(undecoded());
  }
};

/// Every field as `name=value` (test diagnostics, log lines).
std::ostream& operator<<(std::ostream& os, const DecodeStats& s);

/// Streaming decoder: push frames in time order, receive messages through
/// the sink.  Stateless across messages except for IP reassembly.
class FrameDecoder {
 public:
  /// `server_ip`: datagrams not involving the server are counted but not
  /// decoded (the capture point sees only server traffic anyway).
  FrameDecoder(std::uint32_t server_ip, std::uint16_t server_port,
               MessageSink sink);

  void push(const sim::TimedFrame& frame);

  /// The header-only first step of push(): classify the frame
  /// (net::classify_frame) and, unless it is UDP, count it — stats,
  /// `decode.*` counters, and for a bad IP header the flight event and log
  /// line — and return true: the frame is fully handled.  Returns false,
  /// counting nothing, for a UDP frame, which push() then decodes.  The
  /// parallel pipeline's feeder settles frames this way on its own decoder
  /// so that only UDP frames travel to the workers.
  bool settle(const sim::TimedFrame& frame);

  /// Decode one frame appending its messages to `out` instead of calling
  /// the sink — the batched pipelines decode whole frame runs into one
  /// reusable message vector, so the per-message std::function indirection
  /// disappears from the hot path.  Reassembly completions triggered by
  /// this frame land in `out` too (same attribution the sink path has).
  void decode_into(const sim::TimedFrame& frame,
                   std::vector<DecodedMessage>& out);

  /// Flush reassembly timeouts (call at end of stream).
  void finish(SimTime now);

  /// Register `decode.*` instruments in `registry` and record into them
  /// from now on: the DecodeStats fields as counters, decoded messages
  /// broken down by family (`decode.messages.<family>`), and every
  /// rejection broken down by cause (`decode.malformed.<error>`).  Also
  /// binds the embedded reassembler's `net.reassembly.*` instruments.
  /// Several decoders may bind to the same registry (the parallel
  /// pipeline's feeder and workers do): the striped counters merge their
  /// increments.
  void bind_metrics(obs::Registry& registry);

  /// Attach logging / flight-recorder channels (either may be null):
  /// every rejection path records a decode-reject flight event (a = the
  /// DecodeError code, 0 for transport-level rejects) and logs a
  /// rate-limited warning, so a malformed-datagram storm shows up in the
  /// post-mortem dump without flooding stderr.  Forwarded to the embedded
  /// reassembler too.
  void bind_telemetry(obs::Logger* log, obs::FlightRecorder* flight);

  [[nodiscard]] const DecodeStats& stats() const { return stats_; }
  [[nodiscard]] const net::Ipv4Reassembler::Stats& reassembly_stats() const {
    return reassembler_.stats();
  }

  /// Checkpoint codec: decode counters plus the embedded reassembler
  /// (in-flight fragments straddle snapshot boundaries).
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

 private:
  void handle_ip(const net::Ipv4Packet& packet, SimTime time);

  struct Metrics {
    obs::Counter* frames = nullptr;
    obs::Counter* non_ipv4 = nullptr;
    obs::Counter* bad_ip = nullptr;
    obs::Counter* tcp = nullptr;
    obs::Counter* other_ip = nullptr;
    obs::Counter* udp_packets = nullptr;
    obs::Counter* udp_fragments = nullptr;
    obs::Counter* udp_malformed = nullptr;
    obs::Counter* edonkey = nullptr;
    obs::Counter* messages = nullptr;
    // Indexed by proto::Family (4 entries).
    std::array<obs::Counter*, 4> by_family{};
    // Indexed by proto::DecodeError (kNone slot unused).
    std::array<obs::Counter*, 8> by_error{};
  };

  std::uint32_t server_ip_;
  std::uint16_t server_port_;
  MessageSink sink_;
  std::vector<DecodedMessage>* batch_out_ = nullptr;  // set during decode_into
  net::Ipv4Reassembler reassembler_;
  DecodeStats stats_;
  Metrics metrics_;
  obs::Logger* log_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace dtr::decode
