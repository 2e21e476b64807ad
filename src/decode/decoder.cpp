#include "decode/decoder.hpp"

#include <ostream>

namespace dtr::decode {

namespace {
// Layer tags carried in the flight event's `b` field, so a post-mortem dump
// distinguishes where in the stack the rejection happened.  `a` holds the
// proto::DecodeError code (0 for rejects below the eDonkey layer).
constexpr std::uint64_t kRejectEdonkey = 0;
constexpr std::uint64_t kRejectIp = 2;
constexpr std::uint64_t kRejectUdp = 3;
}  // namespace

std::ostream& operator<<(std::ostream& os, const DecodeStats& s) {
  return os << "{frames=" << s.frames << " non_ipv4=" << s.non_ipv4_frames
            << " bad_ip=" << s.bad_ip_packets << " tcp=" << s.tcp_packets
            << " other_ip=" << s.other_ip_packets
            << " udp=" << s.udp_packets << " udp_fragments=" << s.udp_fragments
            << " udp_malformed=" << s.udp_malformed
            << " edonkey=" << s.edonkey_messages << " decoded=" << s.decoded
            << " undecoded_structural=" << s.undecoded_structural
            << " undecoded_effective=" << s.undecoded_effective << "}";
}

FrameDecoder::FrameDecoder(std::uint32_t server_ip, std::uint16_t server_port,
                           MessageSink sink)
    : server_ip_(server_ip),
      server_port_(server_port),
      sink_(std::move(sink)) {}

bool FrameDecoder::settle(const sim::TimedFrame& frame) {
  switch (net::classify_frame(frame.bytes)) {
    case net::FrameClass::kUdp:
      return false;  // push() decodes it
    case net::FrameClass::kNonIpv4:
      ++stats_.non_ipv4_frames;
      obs::inc(metrics_.non_ipv4);
      break;
    case net::FrameClass::kBadIp:
      ++stats_.bad_ip_packets;
      obs::inc(metrics_.bad_ip);
      obs::record(flight_, obs::FlightEvent::kDecodeReject, frame.time, 0,
                  kRejectIp);
      DTR_LOG_WARN(log_, "decode", frame.time,
                   "bad IPv4 packet rejected (truncated or bad checksum)");
      break;
    case net::FrameClass::kTcp:
      ++stats_.tcp_packets;  // captured, not decoded (paper §2.2)
      obs::inc(metrics_.tcp);
      break;
    case net::FrameClass::kOtherIp:
      ++stats_.other_ip_packets;
      obs::inc(metrics_.other_ip);
      break;
  }
  ++stats_.frames;
  obs::inc(metrics_.frames);
  return true;
}

void FrameDecoder::push(const sim::TimedFrame& frame) {
  if (settle(frame)) return;
  ++stats_.frames;
  obs::inc(metrics_.frames);

  // settle() validated both headers, so this decode cannot fail; it reads
  // the IPv4 packet in place, behind the ethernet header.
  auto ip = net::decode_ipv4(
      BytesView(frame.bytes).subspan(net::kEthernetHeaderSize));
  ++stats_.udp_packets;
  obs::inc(metrics_.udp_packets);
  if (ip->is_fragment()) {
    ++stats_.udp_fragments;
    obs::inc(metrics_.udp_fragments);
  }

  auto whole = reassembler_.push(*ip, frame.time);
  if (!whole) return;  // fragment buffered, or duplicate dropped
  handle_ip(*whole, frame.time);
}

void FrameDecoder::decode_into(const sim::TimedFrame& frame,
                               std::vector<DecodedMessage>& out) {
  struct Redirect {  // exception-safe: push() may throw through us
    FrameDecoder* decoder;
    ~Redirect() { decoder->batch_out_ = nullptr; }
  } redirect{this};
  batch_out_ = &out;
  push(frame);
}

void FrameDecoder::handle_ip(const net::Ipv4Packet& packet, SimTime time) {
  auto udp = net::decode_udp(packet.payload, packet.src, packet.dst);
  if (!udp) {
    ++stats_.udp_malformed;
    obs::inc(metrics_.udp_malformed);
    obs::record(flight_, obs::FlightEvent::kDecodeReject, time, 0, kRejectUdp);
    DTR_LOG_WARN(log_, "decode", time,
                 "malformed UDP datagram rejected (length or checksum)");
    return;
  }

  // Only dialogs with the server are eDonkey traffic at this capture point.
  const bool to_server =
      packet.dst == server_ip_ && udp->dst_port == server_port_;
  const bool from_server =
      packet.src == server_ip_ && udp->src_port == server_port_;
  if (!to_server && !from_server) return;

  ++stats_.edonkey_messages;
  obs::inc(metrics_.edonkey);
  proto::DecodeResult result = proto::decode_datagram(udp->payload);
  if (!result.ok()) {
    if (proto::is_structural(result.error)) {
      ++stats_.undecoded_structural;
    } else {
      ++stats_.undecoded_effective;
    }
    obs::inc(metrics_.by_error[static_cast<std::size_t>(result.error)]);
    obs::record(flight_, obs::FlightEvent::kDecodeReject, time,
                static_cast<std::uint64_t>(result.error), kRejectEdonkey);
    DTR_LOG_WARN(log_, "decode", time,
                 "undecoded eDonkey datagram: "
                     << proto::decode_error_name(result.error));
    return;
  }

  ++stats_.decoded;
  obs::inc(metrics_.messages);
  obs::inc(metrics_.by_family[static_cast<std::size_t>(
      proto::family_of(*result.message))]);
  if (batch_out_ != nullptr || sink_) {
    DecodedMessage out;
    out.time = time;
    out.src_ip = packet.src;
    out.src_port = udp->src_port;
    out.dst_ip = packet.dst;
    out.dst_port = udp->dst_port;
    out.message = std::move(*result.message);
    if (batch_out_ != nullptr) {
      batch_out_->push_back(std::move(out));
    } else {
      sink_(std::move(out));
    }
  }
}

void FrameDecoder::finish(SimTime now) { reassembler_.expire(now); }

void FrameDecoder::save_state(ByteWriter& out) const {
  out.u64le(stats_.frames);
  out.u64le(stats_.non_ipv4_frames);
  out.u64le(stats_.bad_ip_packets);
  out.u64le(stats_.tcp_packets);
  out.u64le(stats_.other_ip_packets);
  out.u64le(stats_.udp_packets);
  out.u64le(stats_.udp_fragments);
  out.u64le(stats_.udp_malformed);
  out.u64le(stats_.edonkey_messages);
  out.u64le(stats_.decoded);
  out.u64le(stats_.undecoded_structural);
  out.u64le(stats_.undecoded_effective);
  reassembler_.save_state(out);
}

bool FrameDecoder::restore_state(ByteReader& in) {
  stats_.frames = in.u64le();
  stats_.non_ipv4_frames = in.u64le();
  stats_.bad_ip_packets = in.u64le();
  stats_.tcp_packets = in.u64le();
  stats_.other_ip_packets = in.u64le();
  stats_.udp_packets = in.u64le();
  stats_.udp_fragments = in.u64le();
  stats_.udp_malformed = in.u64le();
  stats_.edonkey_messages = in.u64le();
  stats_.decoded = in.u64le();
  stats_.undecoded_structural = in.u64le();
  stats_.undecoded_effective = in.u64le();
  return reassembler_.restore_state(in) && in.ok();
}

void FrameDecoder::bind_telemetry(obs::Logger* log,
                                  obs::FlightRecorder* flight) {
  log_ = log;
  flight_ = flight;
  reassembler_.bind_telemetry(log, flight);
}

void FrameDecoder::bind_metrics(obs::Registry& registry) {
  metrics_.frames = &registry.counter("decode.frames");
  metrics_.non_ipv4 = &registry.counter("decode.non_ipv4");
  metrics_.bad_ip = &registry.counter("decode.bad_ip");
  metrics_.tcp = &registry.counter("decode.tcp");
  metrics_.other_ip = &registry.counter("decode.other_ip");
  metrics_.udp_packets = &registry.counter("decode.udp.packets");
  metrics_.udp_fragments = &registry.counter("decode.udp.fragments");
  metrics_.udp_malformed = &registry.counter("decode.udp.malformed");
  metrics_.edonkey = &registry.counter("decode.edonkey");
  metrics_.messages = &registry.counter("decode.messages");
  for (std::size_t i = 0; i < metrics_.by_family.size(); ++i) {
    metrics_.by_family[i] = &registry.counter(
        std::string("decode.messages.") +
        proto::family_name(static_cast<proto::Family>(i)));
  }
  // Slot 0 is DecodeError::kNone — successes never land in by_error.
  for (std::size_t i = 1; i < metrics_.by_error.size(); ++i) {
    metrics_.by_error[i] = &registry.counter(
        std::string("decode.malformed.") +
        proto::decode_error_name(static_cast<proto::DecodeError>(i)));
  }
  reassembler_.bind_metrics(registry);
}

}  // namespace dtr::decode
