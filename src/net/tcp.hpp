// TCP segments and stream reassembly.
//
// The paper captured TCP (half of the traffic) but could not exploit it:
// "packet losses ... make tcp flows reconstruction very difficult, as
// packets are missing inside flows", and "even without packet losses, tcp
// conversation reconstruction is not an easy task, as the server receives
// about 5000 syn packets per minute" (§2.2).  The conclusion lists TCP
// decoding as future work; this module implements it.
//
// Scope: enough TCP to reconstruct eDonkey-over-TCP dialogs from a pcap
// capture — header codec with pseudo-header checksum, and a per-flow
// reassembler that orders segments by sequence number, tolerates
// out-of-order arrival, duplicates and retransmissions, detects loss-
// induced gaps (reporting them instead of producing corrupt streams), and
// expires idle flows.  Congestion control, windows and timers are not
// modelled: a capture consumer never needs them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "net/ipv4.hpp"  // kProtocolTcp

namespace dtr::net {

constexpr std::size_t kTcpHeaderSize = 20;  // no options in this traffic

struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;
  bool operator==(const TcpFlags&) const = default;
};

struct TcpSegment {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  std::uint16_t window = 65535;
  Bytes payload;
};

/// Serialize with the checksum computed over the IPv4 pseudo-header.
Bytes encode_tcp(const TcpSegment& s, std::uint32_t src_ip,
                 std::uint32_t dst_ip);

/// Decode and verify; nullopt on short input, bad offset, or bad checksum
/// (a zero checksum is accepted as "not computed" — synthetic generators
/// may omit it, real stacks never do).
std::optional<TcpSegment> decode_tcp(BytesView data, std::uint32_t src_ip,
                                     std::uint32_t dst_ip);

/// One direction of one TCP connection, identified at the reassembler API.
struct FlowKey {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  auto operator<=>(const FlowKey&) const = default;
};

/// Callback: contiguous in-order bytes of a flow, as they become available.
/// `gap` is true when data was lost before this chunk (the stream skipped
/// ahead) — consumers must resynchronise (eDonkey framing allows that only
/// at a message boundary, so gapped flows are typically abandoned, exactly
/// the paper's §2.2 difficulty).
using StreamSink =
    std::function<void(const FlowKey&, BytesView data, bool gap)>;

class TcpStreamReassembler {
 public:
  struct Stats {
    std::uint64_t segments = 0;
    std::uint64_t syn_seen = 0;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t out_of_order = 0;   // buffered for later
    std::uint64_t duplicates = 0;     // retransmissions / overlaps dropped
    std::uint64_t gaps_skipped = 0;   // loss holes jumped over
    std::uint64_t flows_expired = 0;
    std::uint64_t orphan_segments = 0;  // data before any SYN
  };

  struct Config {
    SimTime idle_timeout = 5 * kMinute;
    std::size_t max_buffered_per_flow = 1 << 20;  // bytes of OOO data
    /// After this much buffered data beyond a hole, assume the missing
    /// segment was lost at capture and skip ahead (flagging the gap).
    std::size_t gap_skip_threshold = 64 * 1024;
  };

  explicit TcpStreamReassembler(StreamSink sink);
  TcpStreamReassembler(StreamSink sink, const Config& config);

  /// Feed one segment (from IP payload) with its addressing and time.
  void push(std::uint32_t src_ip, std::uint32_t dst_ip, const TcpSegment& seg,
            SimTime now);

  /// Expire idle flows.
  void expire(SimTime now);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }

 private:
  struct Flow {
    std::uint32_t next_seq = 0;  // next expected sequence number
    bool established = false;
    SimTime last_activity = 0;
    // Out-of-order buffer: seq -> payload.
    std::map<std::uint32_t, Bytes> pending;
    std::size_t pending_bytes = 0;
  };

  void deliver_ready(const FlowKey& key, Flow& flow, bool after_gap);

  StreamSink sink_;
  Config config_;
  std::map<FlowKey, Flow> flows_;
  Stats stats_;
};

}  // namespace dtr::net
