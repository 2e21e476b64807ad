// Deterministic structured fuzzers for the decode chain: >= 10k mutated
// frames pushed through a FrameDecoder bound to an obs::Registry.  The
// decoder may not crash or hang, and after every run the stats must
// reconcile: every frame lands in exactly one `decode.*` counter and all
// seven rejection paths fire.  The header classifier the feeder settles
// frames with must agree with the full decode on every mutated frame.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "decode/decoder.hpp"
#include "net/classify.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "proto/codec.hpp"
#include "proto/messages.hpp"
#include "proto/opcodes.hpp"
#include "proto/search_expr.hpp"
#include "proto/tags.hpp"

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

}  // namespace
}  // namespace dtr::decode
