// Deterministic structured fuzzers for the decode chain: >= 10k mutated
// frames pushed through a FrameDecoder bound to an obs::Registry, and
// >= 10k mutated TCP segments through a TcpFrameDecoder.  Neither decoder
// may crash or hang, and after every run the stats must reconcile — for
// UDP, every frame lands in exactly one `decode.*` counter and all seven
// rejection paths fire; for TCP, frames == tcp_segments + non_tcp, every
// decoded message reaches the sink exactly once, and lossless flows decode
// every message they carried despite reordering, retransmission and
// overlapping segments.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "decode/decoder.hpp"
#include "decode/tcp_decoder.hpp"
#include "net/classify.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "proto/codec.hpp"
#include "proto/messages.hpp"
#include "proto/opcodes.hpp"
#include "proto/search_expr.hpp"
#include "proto/tags.hpp"
#include "proto/tcp_codec.hpp"

namespace dtr::decode {
namespace {

constexpr std::uint32_t kServerIp = 0xC0A80001;
constexpr std::uint16_t kServerPort = 4665;

FileId make_file_id(std::uint8_t fill) {
  FileId id;
  id.bytes.fill(fill);
  return id;
}

proto::FileEntry make_entry(std::uint8_t fill) {
  proto::FileEntry e;
  e.file_id = make_file_id(fill);
  e.client_id = 0x0A000000u + fill;
  e.port = 4662;
  e.tags.push_back(proto::Tag::str(proto::TagName::kFileName, "ubuntu iso"));
  e.tags.push_back(proto::Tag::u32(proto::TagName::kFileSize, 700'000'000));
  return e;
}

/// Encoded datagrams covering all twelve message types (the valid corpus
/// the mutator perturbs).
std::vector<Bytes> valid_corpus() {
  std::vector<Bytes> corpus;
  corpus.push_back(proto::encode_message(proto::ServStatReq{123}));
  corpus.push_back(proto::encode_message(proto::ServStatRes{123, 50'000, 9'000'000}));
  corpus.push_back(proto::encode_message(proto::ServerDescReq{}));
  corpus.push_back(
      proto::encode_message(proto::ServerDescRes{"fuzz", "a server"}));
  corpus.push_back(proto::encode_message(proto::GetServerList{}));
  corpus.push_back(proto::encode_message(
      proto::ServerList{{{0x0B000001, 4661}, {0x0B000002, 4665}}}));
  {
    proto::FileSearchReq req;
    req.expr = proto::SearchExpr::boolean(
        proto::BoolOp::kAnd, proto::SearchExpr::keyword("linux"),
        proto::SearchExpr::numeric(1 << 20, proto::NumCmp::kMin,
                                   proto::TagName::kFileSize));
    corpus.push_back(proto::encode_message(std::move(req)));
  }
  corpus.push_back(proto::encode_message(
      proto::FileSearchRes{{make_entry(1), make_entry(2)}}));
  corpus.push_back(proto::encode_message(
      proto::GetSourcesReq{{make_file_id(3), make_file_id(4)}}));
  corpus.push_back(proto::encode_message(proto::FoundSourcesRes{
      make_file_id(3), {{0x0A000001, 4662}, {0x0A000002, 4662}}}));
  {
    proto::PublishReq pub;
    for (std::uint8_t i = 0; i < 12; ++i) pub.files.push_back(make_entry(i));
    corpus.push_back(proto::encode_message(pub));  // big: fragments at low MTU
  }
  corpus.push_back(proto::encode_message(proto::PublishAck{12}));
  return corpus;
}

/// Hand-built datagrams, one per rejection path, so coverage of every
/// `decode.malformed.*` counter never depends on the mutator getting lucky.
std::vector<Bytes> rejection_corpus() {
  std::vector<Bytes> bad;
  bad.push_back(Bytes{});                          // kTooShort
  bad.push_back(Bytes{0xE3});                      // kTooShort
  bad.push_back(Bytes{0x00, 0x96, 1, 2, 3, 4});    // kBadMarker
  bad.push_back(Bytes{0xC5, 0x96, 1, 2, 3, 4});    // kUnsupportedDialect
  bad.push_back(Bytes{0xD4, 0x01, 9, 9});          // kUnsupportedDialect
  bad.push_back(Bytes{0xE3, 0x42, 1, 2});          // kUnknownOpcode
  bad.push_back(Bytes{0xE3, 0x96, 1, 2, 3});       // kLengthMismatch (body != 4)
  bad.push_back(Bytes{0xE3, 0x98, 0xFF, 0xFF});    // kMalformedBody (bad expr)
  {
    Bytes trailing = proto::encode_message(proto::ServerDescRes{"a", "b"});
    trailing.push_back(0xFF);                      // kTrailingGarbage
    bad.push_back(std::move(trailing));
  }
  return bad;
}

class Fuzzer {
 public:
  Fuzzer() : decoder_(kServerIp, kServerPort,
                      [this](DecodedMessage&&) { ++delivered_; }) {
    decoder_.bind_metrics(registry_);
  }

  /// Wrap a datagram into one or more ethernet frames and push them all.
  void push_datagram(const Bytes& payload, bool to_server, std::size_t mtu) {
    net::UdpDatagram udp;
    udp.src_port = to_server ? std::uint16_t{4662} : kServerPort;
    udp.dst_port = to_server ? kServerPort : std::uint16_t{4662};
    udp.payload = payload;
    net::Ipv4Packet ip;
    ip.src = to_server ? 0x0A000001u : kServerIp;
    ip.dst = to_server ? kServerIp : 0x0A000001u;
    ip.identification = ident_++;
    ip.payload = net::encode_udp(udp, ip.src, ip.dst);
    for (const net::Ipv4Packet& piece : net::fragment_ipv4(ip, mtu)) {
      net::EthernetFrame eth;
      eth.payload = net::encode_ipv4(piece);
      push_frame(net::encode_ethernet(eth));
    }
  }

  void push_frame(Bytes frame) {
    decoder_.push(sim::TimedFrame{time_++, std::move(frame)});
    ++frames_pushed_;
  }

  FrameDecoder& decoder() { return decoder_; }
  [[nodiscard]] const FrameDecoder& decoder() const { return decoder_; }
  obs::Registry& registry() { return registry_; }
  [[nodiscard]] std::uint64_t frames_pushed() const { return frames_pushed_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

 private:
  obs::Registry registry_;
  FrameDecoder decoder_;
  std::uint64_t delivered_ = 0;
  std::uint64_t frames_pushed_ = 0;
  std::uint16_t ident_ = 1;
  SimTime time_ = 0;
};

Bytes mutate(Bytes bytes, Rng& rng) {
  const std::uint64_t edits = rng.between(1, 3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    switch (rng.below(4)) {
      case 0:  // flip one bit
        if (!bytes.empty()) {
          bytes[rng.below(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      case 1:  // truncate
        if (!bytes.empty()) bytes.resize(rng.below(bytes.size() + 1));
        break;
      case 2: {  // append garbage
        const std::uint64_t extra = rng.between(1, 16);
        for (std::uint64_t i = 0; i < extra; ++i) {
          bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
        }
        break;
      }
      default:  // overwrite one byte
        if (!bytes.empty()) {
          bytes[rng.below(bytes.size())] =
              static_cast<std::uint8_t>(rng.below(256));
        }
        break;
    }
  }
  return bytes;
}

/// The counters must account for every frame exactly once, level by level.
void expect_counters_reconcile(const Fuzzer& fuzz, const obs::Snapshot& snap) {
  const DecodeStats& s = fuzz.decoder().stats();

  EXPECT_EQ(s.frames, fuzz.frames_pushed());
  EXPECT_EQ(snap.counter("decode.frames"), s.frames);
  EXPECT_EQ(snap.counter("decode.non_ipv4"), s.non_ipv4_frames);
  EXPECT_EQ(snap.counter("decode.bad_ip"), s.bad_ip_packets);
  EXPECT_EQ(snap.counter("decode.tcp"), s.tcp_packets);
  EXPECT_EQ(snap.counter("decode.other_ip"), s.other_ip_packets);
  EXPECT_EQ(snap.counter("decode.udp.packets"), s.udp_packets);
  EXPECT_EQ(snap.counter("decode.udp.fragments"), s.udp_fragments);
  EXPECT_EQ(snap.counter("decode.udp.malformed"), s.udp_malformed);
  EXPECT_EQ(snap.counter("decode.edonkey"), s.edonkey_messages);
  EXPECT_EQ(snap.counter("decode.messages"), s.decoded);

  // Every frame lands in exactly one top-level bucket.
  EXPECT_EQ(s.frames, s.non_ipv4_frames + s.bad_ip_packets + s.tcp_packets +
                          s.other_ip_packets + s.udp_packets);

  // Every eDonkey datagram either decodes or is rejected for one cause.
  EXPECT_EQ(s.edonkey_messages, s.decoded + s.undecoded());
  std::uint64_t rejected = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("decode.malformed.", 0) == 0) rejected += value;
  }
  EXPECT_EQ(rejected, s.undecoded());

  std::uint64_t by_family = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("decode.messages.", 0) == 0) by_family += value;
  }
  EXPECT_EQ(by_family, s.decoded);
  EXPECT_EQ(fuzz.delivered(), s.decoded);

  // The embedded reassembler's instruments agree with its own stats.
  const auto& r = fuzz.decoder().reassembly_stats();
  EXPECT_EQ(snap.counter("net.reassembly.fragments"), r.fragments_seen);
  EXPECT_EQ(snap.counter("net.reassembly.reassembled"), r.reassembled);
  EXPECT_EQ(snap.counter("net.reassembly.expired"), r.expired);
  EXPECT_EQ(snap.counter("net.reassembly.overlapping"), r.overlapping);
}

TEST(DecodeFuzz, TenThousandMutatedFramesNeverCrashAndAlwaysReconcile) {
  Fuzzer fuzz;
  Rng rng(0xF00DFACE);
  const std::vector<Bytes> corpus = valid_corpus();
  const std::vector<Bytes> rejections = rejection_corpus();

  // Seed every rejection path deterministically (coverage must not depend
  // on mutation luck).
  for (const Bytes& bad : rejections) {
    fuzz.push_datagram(bad, /*to_server=*/true, net::kDefaultMtu);
  }

  std::uint64_t mutated = 0;
  while (mutated < 10'000) {
    const Bytes& base = rng.chance(0.85)
                            ? corpus[rng.below(corpus.size())]
                            : rejections[rng.below(rejections.size())];
    Bytes payload = mutate(base, rng);
    const bool to_server = !rng.chance(0.05);
    const std::size_t mtu = rng.chance(0.15) ? 256 : net::kDefaultMtu;
    const std::uint64_t before = fuzz.frames_pushed();

    if (rng.chance(0.10)) {
      // Frame-level corruption: wrap a valid datagram, then damage the raw
      // frame bytes — exercises the ethernet/IP/UDP rejection paths.
      net::UdpDatagram udp;
      udp.src_port = 4662;
      udp.dst_port = kServerPort;
      udp.payload = payload;
      net::Ipv4Packet ip;
      ip.src = 0x0A000001;
      ip.dst = kServerIp;
      ip.identification = 0;
      ip.payload = net::encode_udp(udp, ip.src, ip.dst);
      net::EthernetFrame eth;
      eth.payload = net::encode_ipv4(ip);
      fuzz.push_frame(mutate(net::encode_ethernet(eth), rng));
    } else {
      fuzz.push_datagram(payload, to_server, mtu);
    }
    mutated += fuzz.frames_pushed() - before;
  }
  EXPECT_GE(fuzz.frames_pushed(), 10'000u);

  // Flush any fragments the mutator orphaned.
  fuzz.decoder().finish(kHour * 24 * 365);

  const obs::Snapshot snap = fuzz.registry().snapshot();
  expect_counters_reconcile(fuzz, snap);

  // Full rejection-path coverage: all seven causes fired at least once.
  using proto::DecodeError;
  for (int e = 1; e <= static_cast<int>(DecodeError::kTrailingGarbage); ++e) {
    const std::string name =
        std::string("decode.malformed.") +
        proto::decode_error_name(static_cast<DecodeError>(e));
    EXPECT_GT(snap.counter(name), 0u) << name << " never fired";
  }
  // The mutator must also have produced plenty of cleanly decoded traffic,
  // and some rejected traffic beyond the seeded examples.
  EXPECT_GT(snap.counter("decode.messages"), 0u);
  EXPECT_GT(fuzz.decoder().stats().undecoded(),
            static_cast<std::uint64_t>(rejections.size()));
}

TEST(DecodeFuzz, TransportLevelRejectsAreCountedNotCrashed) {
  Fuzzer fuzz;

  // Non-IPv4 (ARP) frame.
  net::EthernetFrame arp;
  arp.ether_type = net::kEtherTypeArp;
  arp.payload = Bytes(28, 0);
  fuzz.push_frame(net::encode_ethernet(arp));

  // Garbage that fails IP header validation.
  net::EthernetFrame junk;
  junk.payload = Bytes(24, 0x45);
  fuzz.push_frame(net::encode_ethernet(junk));

  // TCP and ICMP to the server: counted, not decoded.
  for (std::uint8_t protocol : {std::uint8_t{6}, std::uint8_t{1}}) {
    net::Ipv4Packet ip;
    ip.src = 0x0A000001;
    ip.dst = kServerIp;
    ip.protocol = protocol;
    ip.payload = Bytes(20, 0);
    net::EthernetFrame eth;
    eth.payload = net::encode_ipv4(ip);
    fuzz.push_frame(net::encode_ethernet(eth));
  }

  // UDP too short for its header.
  net::Ipv4Packet shorty;
  shorty.src = 0x0A000001;
  shorty.dst = kServerIp;
  shorty.payload = Bytes(4, 0);
  net::EthernetFrame eth;
  eth.payload = net::encode_ipv4(shorty);
  fuzz.push_frame(net::encode_ethernet(eth));

  // A well-formed dialog that does not involve the server: counted as UDP,
  // never as an eDonkey message.
  {
    net::UdpDatagram udp;
    udp.src_port = 4662;
    udp.dst_port = 9999;
    udp.payload = proto::encode_message(proto::ServStatReq{1});
    net::Ipv4Packet ip;
    ip.src = 0x0A000001;
    ip.dst = 0x0B000001;
    ip.identification = 7;
    ip.payload = net::encode_udp(udp, ip.src, ip.dst);
    net::EthernetFrame frame;
    frame.payload = net::encode_ipv4(ip);
    fuzz.push_frame(net::encode_ethernet(frame));
  }

  const obs::Snapshot snap = fuzz.registry().snapshot();
  EXPECT_EQ(snap.counter("decode.udp.packets"), 2u);
  EXPECT_EQ(snap.counter("decode.edonkey"), 0u);
  EXPECT_EQ(snap.counter("decode.non_ipv4"), 1u);
  EXPECT_EQ(snap.counter("decode.bad_ip"), 1u);
  EXPECT_EQ(snap.counter("decode.tcp"), 1u);
  EXPECT_EQ(snap.counter("decode.other_ip"), 1u);
  EXPECT_EQ(snap.counter("decode.udp.malformed"), 1u);
  expect_counters_reconcile(fuzz, snap);
}

/// The class the full decode assigns a frame: decode_ethernet, then
/// decode_ipv4, then the protocol byte — the oracle classify_frame() must
/// match without copying anything.
net::FrameClass decoded_class(const Bytes& frame) {
  const auto eth = net::decode_ethernet(frame);
  if (!eth || eth->ether_type != net::kEtherTypeIpv4) {
    return net::FrameClass::kNonIpv4;
  }
  const auto ip = net::decode_ipv4(eth->payload);
  if (!ip) return net::FrameClass::kBadIp;
  if (ip->protocol == net::kProtocolUdp) return net::FrameClass::kUdp;
  if (ip->protocol == net::kProtocolTcp) return net::FrameClass::kTcp;
  return net::FrameClass::kOtherIp;
}

TEST(DecodeFuzz, HeaderClassifierAgreesWithFullDecode) {
  Rng rng(0xC1A55EED);
  std::vector<Bytes> bases;
  for (std::uint8_t protocol : {net::kProtocolUdp, net::kProtocolTcp,
                                std::uint8_t{1}}) {
    net::Ipv4Packet ip;
    ip.src = 0x0A000001;
    ip.dst = kServerIp;
    ip.protocol = protocol;
    ip.payload = Bytes(24, 0x5C);
    net::EthernetFrame eth;
    eth.payload = net::encode_ipv4(ip);
    bases.push_back(net::encode_ethernet(eth));
  }
  net::EthernetFrame arp;
  arp.ether_type = net::kEtherTypeArp;
  arp.payload = Bytes(28, 0);
  bases.push_back(net::encode_ethernet(arp));

  std::array<std::uint64_t, 5> seen{};
  for (int i = 0; i < 20'000; ++i) {
    Bytes frame = bases[rng.below(bases.size())];
    if (rng.chance(0.5)) {
      frame = mutate(std::move(frame), rng);
    } else {
      // Aim at the header fields the classifier reads — ethertype,
      // version/IHL, total length, protocol — then usually fix the header
      // checksum, so the later rules are reached, not just the checksum.
      const std::size_t fields[] = {12, 13, 14, 16, 17, 23};
      const std::size_t at = fields[rng.below(std::size(fields))];
      frame[at] = static_cast<std::uint8_t>(rng.below(256));
      const std::size_t ihl = static_cast<std::size_t>(frame[14] & 0x0F) * 4;
      if (rng.chance(0.8) && ihl >= net::kIpv4HeaderSize &&
          frame.size() >= net::kEthernetHeaderSize + ihl) {
        frame[24] = 0;
        frame[25] = 0;
        const std::uint16_t sum = net::internet_checksum(
            BytesView(frame).subspan(net::kEthernetHeaderSize, ihl));
        frame[24] = static_cast<std::uint8_t>(sum >> 8);
        frame[25] = static_cast<std::uint8_t>(sum & 0xFF);
      }
    }
    const net::FrameClass expect = decoded_class(frame);
    ASSERT_EQ(static_cast<int>(net::classify_frame(frame)),
              static_cast<int>(expect))
        << "frame " << i << " of " << frame.size() << " bytes";
    ++seen[static_cast<std::size_t>(expect)];
  }
  for (std::size_t c = 0; c < seen.size(); ++c) {
    EXPECT_GT(seen[c], 0u) << "class " << c << " never produced";
  }
}

// ---------------------------------------------------------------------------
// TCP fuzz: TcpFrameDecoder under segmentation chaos
// ---------------------------------------------------------------------------

/// Client ports below this belong to *lossless* flows (reordering,
/// retransmission and overlap allowed, but no drops and no payload
/// corruption): every message they carry must decode.  Ports at or above
/// it belong to dirty flows where anything goes.
constexpr std::uint16_t kDirtyPortBase = 20'000;

std::vector<proto::TcpMessage> tcp_corpus() {
  std::vector<proto::TcpMessage> corpus;
  {
    proto::LoginRequest login;
    login.user_hash.bytes.fill(0x5A);
    login.client_id = 0;
    login.port = 4662;
    login.name = "fuzz client";
    login.version = 60;
    corpus.push_back(std::move(login));
  }
  corpus.push_back(proto::IdChange{0x0A000001});
  corpus.push_back(proto::ServerMessage{"server says: keep fuzzing"});
  corpus.push_back(
      proto::OfferFiles{{make_entry(1), make_entry(2), make_entry(3)}});
  corpus.push_back(proto::ServerStatus{50'000, 9'000'000});
  {
    proto::FileSearchReq req;
    req.expr = proto::SearchExpr::boolean(
        proto::BoolOp::kAnd, proto::SearchExpr::keyword("debian"),
        proto::SearchExpr::numeric(1 << 22, proto::NumCmp::kMin,
                                   proto::TagName::kFileSize));
    corpus.push_back(std::move(req));
  }
  corpus.push_back(proto::FileSearchRes{{make_entry(4), make_entry(5)}});
  corpus.push_back(
      proto::GetSourcesReq{{make_file_id(6), make_file_id(7)}});
  corpus.push_back(proto::FoundSourcesRes{
      make_file_id(6), {{0x0A000001, 4662}, {0x0A000002, 4662}}});
  return corpus;
}

class TcpFuzzer {
 public:
  TcpFuzzer()
      : decoder_(kServerIp, kServerPort, [this](DecodedTcpMessage&& m) {
          ++delivered_;
          const std::uint16_t client_port =
              m.from_client ? m.flow.src_port : m.flow.dst_port;
          if (client_port < kDirtyPortBase) ++delivered_clean_;
        }) {}

  /// Wrap one TCP segment in IP + ethernet and push the frame, optionally
  /// damaging the raw frame bytes first (`corrupt_at` >= frame size means
  /// pristine).  Single-bit flips in the TCP region always fail the TCP
  /// checksum, so damaged frames deterministically count as non_tcp.
  void push_segment(std::uint32_t src_ip, std::uint32_t dst_ip,
                    const net::TcpSegment& seg) {
    net::Ipv4Packet ip;
    ip.src = src_ip;
    ip.dst = dst_ip;
    ip.protocol = net::kProtocolTcp;
    ip.identification = ident_++;
    ip.payload = net::encode_tcp(seg, src_ip, dst_ip);
    net::EthernetFrame eth;
    eth.payload = net::encode_ipv4(ip);
    push_frame(net::encode_ethernet(eth));
  }

  void push_frame(Bytes frame) {
    decoder_.push(sim::TimedFrame{time_++, std::move(frame)});
    ++frames_pushed_;
  }

  TcpFrameDecoder& decoder() { return decoder_; }
  [[nodiscard]] std::uint64_t frames_pushed() const { return frames_pushed_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t delivered_clean() const {
    return delivered_clean_;
  }
  [[nodiscard]] SimTime now() const { return time_; }

 private:
  TcpFrameDecoder decoder_;
  std::uint64_t delivered_ = 0;
  std::uint64_t delivered_clean_ = 0;
  std::uint64_t frames_pushed_ = 0;
  std::uint16_t ident_ = 1;
  SimTime time_ = 0;
};

/// One direction of a TCP conversation with its own sequence cursor.
struct FlowSim {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t isn = 0;
  std::uint32_t next_seq = 0;
  bool syn_sent = false;
};

net::TcpSegment make_segment(const FlowSim& flow, std::uint32_t seq,
                             Bytes payload) {
  net::TcpSegment seg;
  seg.src_port = flow.src_port;
  seg.dst_port = flow.dst_port;
  seg.seq = seq;
  seg.flags = {.syn = false, .ack = true, .fin = false, .rst = false,
               .psh = true};
  seg.payload = std::move(payload);
  return seg;
}

/// Send `stream` over `flow` in random segment sizes with transport-level
/// chaos.  Content-preserving chaos (reorder, exact retransmit, partial
/// overlap with identical bytes) is always on; lossy chaos (drops) only
/// when `allow_loss`.
void send_stream(TcpFuzzer& fuzz, Rng& rng, FlowSim& flow, const Bytes& stream,
                 bool allow_loss) {
  if (!flow.syn_sent) {
    net::TcpSegment syn;
    syn.src_port = flow.src_port;
    syn.dst_port = flow.dst_port;
    syn.seq = flow.isn;
    syn.flags = {.syn = true, .ack = false, .fin = false, .rst = false,
                 .psh = false};
    fuzz.push_segment(flow.src_ip, flow.dst_ip, syn);
    flow.next_seq = flow.isn + 1;  // SYN consumes one sequence number
    flow.syn_sent = true;
  }
  struct Piece {
    std::size_t off;
    std::size_t len;
  };
  std::vector<Piece> pieces;
  const std::size_t base_off =
      static_cast<std::size_t>(flow.next_seq - flow.isn - 1);
  std::size_t off = base_off;
  while (off < base_off + stream.size()) {
    const std::size_t remaining = base_off + stream.size() - off;
    const std::size_t len =
        std::min<std::size_t>(rng.between(1, 1460), remaining);
    pieces.push_back({off, len});
    off += len;
  }
  flow.next_seq += static_cast<std::uint32_t>(stream.size());
  // Reorder: swap adjacent pieces (the reassembler buffers out-of-order
  // data and replays it once the hole fills).
  for (std::size_t i = 0; i + 1 < pieces.size(); ++i) {
    if (rng.chance(0.10)) std::swap(pieces[i], pieces[i + 1]);
  }
  auto slice = [&](std::size_t o, std::size_t n) {
    return Bytes(stream.begin() + static_cast<std::ptrdiff_t>(o - base_off),
                 stream.begin() + static_cast<std::ptrdiff_t>(o - base_off + n));
  };
  for (const Piece& p : pieces) {
    if (allow_loss && rng.chance(0.02)) continue;  // capture loss
    const std::uint32_t seq =
        flow.isn + 1 + static_cast<std::uint32_t>(p.off);
    fuzz.push_segment(flow.src_ip, flow.dst_ip,
                      make_segment(flow, seq, slice(p.off, p.len)));
    if (rng.chance(0.06)) {  // exact retransmission
      fuzz.push_segment(flow.src_ip, flow.dst_ip,
                        make_segment(flow, seq, slice(p.off, p.len)));
    }
    if (rng.chance(0.06) && p.off > base_off) {  // overlapping retransmit
      const std::size_t back = std::min<std::size_t>(7, p.off - base_off);
      fuzz.push_segment(
          flow.src_ip, flow.dst_ip,
          make_segment(flow, seq - static_cast<std::uint32_t>(back),
                       slice(p.off - back, p.len + back)));
    }
  }
}

TEST(TcpDecodeFuzz, TenThousandMutatedSegmentsNeverCrashAndAlwaysReconcile) {
  TcpFuzzer fuzz;
  Rng rng(0xBEEFCAFE);
  const std::vector<proto::TcpMessage> corpus = tcp_corpus();

  std::uint64_t clean_sent = 0;
  std::uint16_t next_clean_port = 10'000;
  std::uint16_t next_dirty_port = kDirtyPortBase;

  while (fuzz.frames_pushed() < 10'000) {
    const bool clean = rng.chance(0.5);
    const bool to_server = rng.chance(0.7);
    const std::uint32_t client_ip = 0x0A000000u + rng.below(200) + 1;
    const std::uint16_t client_port =
        clean ? next_clean_port++ : next_dirty_port++;
    FlowSim flow;
    flow.src_ip = to_server ? client_ip : kServerIp;
    flow.dst_ip = to_server ? kServerIp : client_ip;
    flow.src_port = to_server ? client_port : kServerPort;
    flow.dst_port = to_server ? kServerPort : client_port;
    flow.isn = static_cast<std::uint32_t>(rng.below(0xFFFFFFFFull));

    // Concatenate a handful of messages into this flow's byte stream.
    Bytes stream;
    const std::uint64_t count = rng.between(1, 6);
    for (std::uint64_t m = 0; m < count; ++m) {
      const Bytes wire =
          proto::encode_tcp_message(corpus[rng.below(corpus.size())]);
      stream.insert(stream.end(), wire.begin(), wire.end());
    }
    if (clean) {
      clean_sent += count;
      send_stream(fuzz, rng, flow, stream, /*allow_loss=*/false);
    } else {
      // Dirty flows: corrupt the stream bytes before segmentation (the
      // extractor must resynchronise, never crash), then allow drops.
      Bytes dirty = mutate(stream, rng);
      send_stream(fuzz, rng, flow, dirty, /*allow_loss=*/true);
      // And some frame-level garbage alongside: non-IP, truncated TCP,
      // single-bit-flipped TCP (checksum catches it), and traffic on
      // ports the decoder does not watch.
      if (rng.chance(0.5)) {
        net::EthernetFrame arp;
        arp.ether_type = net::kEtherTypeArp;
        arp.payload = Bytes(28, 0);
        fuzz.push_frame(net::encode_ethernet(arp));
      }
      if (rng.chance(0.5)) {
        net::TcpSegment seg = make_segment(flow, flow.isn, Bytes(32, 0x42));
        net::Ipv4Packet ip;
        ip.src = flow.src_ip;
        ip.dst = flow.dst_ip;
        ip.protocol = net::kProtocolTcp;
        ip.identification = 0xFFFF;
        ip.payload = net::encode_tcp(seg, ip.src, ip.dst);
        net::EthernetFrame eth;
        eth.payload = net::encode_ipv4(ip);
        Bytes frame = net::encode_ethernet(eth);
        if (rng.chance(0.5) && frame.size() > 34) {
          // Flip exactly one bit in the TCP region: the checksum always
          // detects a single flip, so the frame counts as non_tcp.
          const std::size_t at = 34 + rng.below(frame.size() - 34);
          frame[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        } else {
          frame.resize(rng.below(frame.size()));  // truncate
        }
        fuzz.push_frame(std::move(frame));
      }
    }
  }

  // One deliberately lossy flow that keeps talking past the hole: enough
  // buffered data accumulates beyond the missing segment that the
  // reassembler skips ahead and flags a stream gap (the paper's §2.2
  // lossy-TCP difficulty, handled by resynchronisation).
  {
    FlowSim flow;
    flow.src_ip = 0x0A0000FE;
    flow.dst_ip = kServerIp;
    flow.src_port = next_dirty_port++;
    flow.dst_port = kServerPort;
    flow.isn = 1000;
    proto::OfferFiles giant;
    for (std::uint32_t i = 0; i < 2'000; ++i) {
      giant.files.push_back(make_entry(static_cast<std::uint8_t>(i)));
    }
    Bytes stream = proto::encode_tcp_message(proto::ServerMessage{"hello"});
    const Bytes big = proto::encode_tcp_message(proto::TcpMessage{giant});
    stream.insert(stream.end(), big.begin(), big.end());
    // Send the SYN and the first 100 bytes, silently drop the next 100,
    // then stream the rest in order: > 64 KiB piles up behind the hole.
    send_stream(fuzz, rng, flow, Bytes(stream.begin(), stream.begin() + 100),
                /*allow_loss=*/false);
    flow.next_seq += 100;  // the dropped segment
    std::size_t off = 200;
    while (off < stream.size()) {
      const std::size_t len = std::min<std::size_t>(1400, stream.size() - off);
      fuzz.push_segment(
          flow.src_ip, flow.dst_ip,
          make_segment(flow, flow.isn + 1 + static_cast<std::uint32_t>(off),
                       Bytes(stream.begin() + static_cast<std::ptrdiff_t>(off),
                             stream.begin() +
                                 static_cast<std::ptrdiff_t>(off + len))));
      off += len;
    }
  }

  fuzz.decoder().finish(fuzz.now() + kHour * 24);

  const TcpDecodeStats& s = fuzz.decoder().stats();
  EXPECT_GE(fuzz.frames_pushed(), 10'000u);
  EXPECT_EQ(s.frames, fuzz.frames_pushed());
  // Every frame is exactly one of: a verified TCP segment, or not (no
  // fragmented IP in this corpus, so nothing can be in flight).
  EXPECT_EQ(s.frames, s.tcp_segments + s.non_tcp);
  // Every decoded message reached the sink exactly once.
  EXPECT_EQ(s.messages, fuzz.delivered());
  // Lossless flows decode *everything* they carried, despite reordering,
  // retransmissions and overlapping segments.
  EXPECT_EQ(fuzz.delivered_clean(), clean_sent);
  // The dirty half must actually have exercised the failure paths.
  EXPECT_GT(s.undecoded, 0u);
  EXPECT_GE(s.stream_gaps, 1u);
  const auto& rs = fuzz.decoder().stream_stats();
  EXPECT_GE(rs.gaps_skipped, 1u);
  EXPECT_GT(rs.duplicates, 0u);
  EXPECT_GT(rs.out_of_order, 0u);
}

// ---------------------------------------------------------------------------
// TCP fuzz: TcpMessageExtractor fed directly
// ---------------------------------------------------------------------------

TEST(TcpDecodeFuzz, ExtractorDecodesEverythingUnderArbitraryChunking) {
  Rng rng(0x7C9A110);
  const std::vector<proto::TcpMessage> corpus = tcp_corpus();
  for (int round = 0; round < 50; ++round) {
    std::uint64_t sunk = 0;
    proto::TcpMessageExtractor extractor(
        [&](proto::TcpMessage&&) { ++sunk; });
    Bytes stream;
    const std::uint64_t count = rng.between(1, 40);
    for (std::uint64_t m = 0; m < count; ++m) {
      const Bytes wire =
          proto::encode_tcp_message(corpus[rng.below(corpus.size())]);
      stream.insert(stream.end(), wire.begin(), wire.end());
    }
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t len =
          std::min<std::size_t>(rng.between(1, 97), stream.size() - off);
      extractor.feed(BytesView(stream.data() + off, len));
      off += len;
    }
    EXPECT_EQ(extractor.stats().messages, count);
    EXPECT_EQ(sunk, count);
    EXPECT_EQ(extractor.stats().undecoded, 0u);
    EXPECT_EQ(extractor.stats().resyncs, 0u);
    EXPECT_EQ(extractor.buffered(), 0u);
  }
}

TEST(TcpDecodeFuzz, ExtractorSurvivesGarbageResyncsAndOversizedFrames) {
  Rng rng(0xD15EA5E);
  const std::vector<proto::TcpMessage> corpus = tcp_corpus();
  std::uint64_t sunk = 0;
  std::uint64_t resyncs_called = 0;
  proto::TcpMessageExtractor extractor([&](proto::TcpMessage&&) { ++sunk; });

  // A frame header claiming a body larger than kMaxFrameLength must be
  // rejected (and trigger a scan), never buffered until memory runs out.
  {
    Bytes bomb{0xE3};
    const std::uint32_t huge = proto::TcpMessageExtractor::kMaxFrameLength + 1;
    for (int i = 0; i < 4; ++i) {
      bomb.push_back(static_cast<std::uint8_t>(huge >> (8 * i)));
    }
    bomb.push_back(0x01);
    extractor.feed(bomb);
    EXPECT_GE(extractor.stats().undecoded, 1u);
  }

  for (int i = 0; i < 10'000; ++i) {
    switch (rng.below(4)) {
      case 0: {  // a pristine message, possibly split
        const Bytes wire =
            proto::encode_tcp_message(corpus[rng.below(corpus.size())]);
        const std::size_t cut = rng.below(wire.size() + 1);
        extractor.feed(BytesView(wire.data(), cut));
        extractor.feed(BytesView(wire.data() + cut, wire.size() - cut));
        break;
      }
      case 1: {  // a mutated message
        extractor.feed(
            mutate(proto::encode_tcp_message(corpus[rng.below(corpus.size())]),
                   rng));
        break;
      }
      case 2: {  // raw garbage
        Bytes junk(rng.between(1, 64), 0);
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
        extractor.feed(junk);
        break;
      }
      default:  // a stream gap, as the reassembler would report it
        extractor.resync();
        ++resyncs_called;
        break;
    }
    // The buffer can never exceed one maximal frame plus its header.
    ASSERT_LE(extractor.buffered(),
              proto::TcpMessageExtractor::kMaxFrameLength + 5u);
  }
  EXPECT_GT(sunk, 0u);
  EXPECT_GT(extractor.stats().undecoded, 0u);
  EXPECT_GE(extractor.stats().resyncs, resyncs_called);
  EXPECT_GT(extractor.stats().bytes_skipped, 0u);
}

}  // namespace
}  // namespace dtr::decode
