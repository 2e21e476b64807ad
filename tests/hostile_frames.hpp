// A mirror stream that exercises every frame class the decoder counts: a
// simulated campaign, background TCP (§2.2), and crafted frames for each
// rejection rule of decode_ethernet + decode_ipv4 — so differentials over
// it compare the non_ipv4 / bad_ip / tcp / other_ip counters, not zeros.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "hash/md4.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"
#include "proto/codec.hpp"
#include "proto/messages.hpp"
#include "sim/background.hpp"
#include "sim/campaign.hpp"

namespace dtr::testing_frames {

/// Recompute the IPv4 header checksum of an ethernet frame in place, so a
/// crafted header fails only the rule it was crafted for.
inline void reseal_ipv4(Bytes& frame, std::size_t ihl = net::kIpv4HeaderSize) {
  const std::size_t at = net::kEthernetHeaderSize;
  frame[at + 10] = 0;
  frame[at + 11] = 0;
  const std::uint16_t sum =
      net::internet_checksum(BytesView(frame).subspan(at, ihl));
  frame[at + 10] = static_cast<std::uint8_t>(sum >> 8);
  frame[at + 11] = static_cast<std::uint8_t>(sum & 0xFF);
}

inline Bytes ethernet(const Bytes& payload,
                      std::uint16_t ether_type = net::kEtherTypeIpv4) {
  net::EthernetFrame eth;
  eth.ether_type = ether_type;
  eth.payload = payload;
  return net::encode_ethernet(eth);
}

/// One frame per class the feeder settles, plus UDP shapes the routed path
/// must keep: IP options, ethernet padding, first and non-first fragments.
inline std::vector<Bytes> crafted_frames(std::uint32_t server_ip,
                                         std::uint16_t server_port) {
  constexpr std::uint32_t kPeer = 0x0B000007;
  net::UdpDatagram udp;
  udp.src_port = 4662;
  udp.dst_port = server_port;
  udp.payload = proto::encode_message(proto::ServStatReq{77});
  net::Ipv4Packet ip;
  ip.src = kPeer;
  ip.dst = server_ip;
  ip.identification = 0x4D00;
  ip.payload = net::encode_udp(udp, ip.src, ip.dst);
  const Bytes valid = ethernet(net::encode_ipv4(ip));

  std::vector<Bytes> out;
  out.push_back(ethernet(Bytes(28, 0), net::kEtherTypeArp));
  out.push_back(ethernet(Bytes(40, 0x60), 0x86DD));  // IPv6
  out.push_back(Bytes{});
  out.push_back(Bytes(5, 0xFF));
  out.push_back(Bytes(valid.begin(), valid.begin() + 13));  // 13 bytes
  out.push_back(ethernet(Bytes{}));  // IPv4 ethertype, no header
  out.push_back(Bytes(valid.begin(), valid.begin() + 30));  // cut header
  {
    Bytes f = valid;  // version 6
    f[14] = 0x65;
    reseal_ipv4(f);
    out.push_back(std::move(f));
  }
  {
    Bytes f = valid;  // IHL 4
    f[14] = 0x44;
    out.push_back(std::move(f));
  }
  {
    Bytes f = valid;  // IHL 15: 60 header bytes, longer than the packet
    f[14] = 0x4F;
    out.push_back(std::move(f));
  }
  {
    Bytes f = valid;  // bad header checksum
    f[14 + 11] ^= 0x5A;
    out.push_back(std::move(f));
  }
  {
    Bytes f = valid;  // total_length beyond the frame
    const std::size_t total = f.size() - 14 + 10;
    f[16] = static_cast<std::uint8_t>(total >> 8);
    f[17] = static_cast<std::uint8_t>(total & 0xFF);
    reseal_ipv4(f);
    out.push_back(std::move(f));
  }
  {
    Bytes f = valid;  // total_length below the header length
    f[16] = 0;
    f[17] = 16;
    reseal_ipv4(f);
    out.push_back(std::move(f));
  }
  {
    net::Ipv4Packet icmp = ip;
    icmp.protocol = 1;
    icmp.payload = Bytes(16, 0x08);
    out.push_back(ethernet(net::encode_ipv4(icmp)));
  }
  {
    net::Ipv4Packet tcp = ip;  // TCP first and non-first fragments
    tcp.protocol = net::kProtocolTcp;
    tcp.identification = 0x4D01;
    tcp.payload = Bytes(40, 0x11);
    for (const net::Ipv4Packet& piece : net::fragment_ipv4(tcp, 44)) {
      out.push_back(ethernet(net::encode_ipv4(piece)));
    }
  }
  {
    // UDP to the server with four NOP option bytes (IHL 6).
    Bytes f = valid;
    f.insert(f.begin() + 34, {1, 1, 1, 1});
    f[14] = 0x46;
    const std::size_t total = f.size() - 14;
    f[16] = static_cast<std::uint8_t>(total >> 8);
    f[17] = static_cast<std::uint8_t>(total & 0xFF);
    reseal_ipv4(f, 24);
    out.push_back(std::move(f));
  }
  {
    Bytes f = valid;  // ethernet padding after the IP packet
    f.resize(f.size() + 18, 0);
    out.push_back(std::move(f));
  }
  {
    // UDP first and non-first fragments of one datagram, then a non-first
    // fragment whose first never arrives.
    net::Ipv4Packet whole = ip;
    whole.identification = 0x4D02;
    for (const net::Ipv4Packet& piece : net::fragment_ipv4(whole, 28)) {
      out.push_back(ethernet(net::encode_ipv4(piece)));
    }
    whole.identification = 0x4D03;
    const auto pieces = net::fragment_ipv4(whole, 28);
    out.push_back(ethernet(net::encode_ipv4(pieces.back())));
  }
  return out;
}

/// A UDP frame carrying `msg` between `client` (port 4662) and the server,
/// towards the server when `to_server`.
inline Bytes message_frame(std::uint32_t server_ip, std::uint16_t server_port,
                           std::uint32_t client, bool to_server,
                           std::uint16_t ip_id, const proto::Message& msg) {
  net::UdpDatagram udp;
  udp.src_port = to_server ? 4662 : server_port;
  udp.dst_port = to_server ? server_port : 4662;
  udp.payload = proto::encode_message(msg);
  net::Ipv4Packet ip;
  ip.src = to_server ? client : server_ip;
  ip.dst = to_server ? server_ip : client;
  ip.identification = ip_id;
  ip.payload = net::encode_udp(udp, ip.src, ip.dst);
  return ethernet(net::encode_ipv4(ip));
}

/// Messages whose IDs first appear where the pipeline's worker/merger split
/// can get them wrong: one message carrying the same unseen fileID twice, a
/// provider equal to its (unseen) peer, a sources answer naming never-seen
/// clients, search answers whose providers are new, and requests that
/// reuse the previous round's files from another flow, so a worker that
/// runs ahead finds them unassigned.  Frames are two seconds apart — more
/// than the pipeline's batch time gap — so every micro-batch holds one
/// frame.
inline std::vector<sim::TimedFrame> hole_corpus(std::uint32_t server_ip,
                                                std::uint16_t server_port,
                                                std::uint32_t rounds = 40) {
  std::vector<sim::TimedFrame> frames;
  std::uint16_t ip_id = 0;
  auto push = [&](std::uint32_t client, bool to_server,
                  const proto::Message& msg) {
    const SimTime at = static_cast<SimTime>(frames.size() + 1) * 2 * kSecond;
    frames.push_back(sim::TimedFrame{
        at, message_frame(server_ip, server_port, client, to_server, ++ip_id,
                          msg)});
  };
  auto file = [](std::uint32_t round, std::uint32_t k) {
    std::string name = "hole ";
    name += std::to_string(round);
    name += '/';
    name += std::to_string(k);
    return Md4::digest(name);
  };
  auto entry = [](const FileId& id, std::uint32_t provider) {
    proto::FileEntry e;
    e.file_id = id;
    e.client_id = provider;
    e.port = 4662;
    e.tags = {proto::Tag::str(proto::TagName::kFileName, "f.avi"),
              proto::Tag::u32(proto::TagName::kFileSize, 4096)};
    return e;
  };
  for (std::uint32_t r = 0; r < rounds; ++r) {
    // Fresh clients a..h and files 1..6 every round.
    const std::uint32_t base = 0x0A000000 + r * 16;
    const std::uint32_t a = base + 1, b = base + 2, c = base + 3,
                        d = base + 4, e = base + 5, g = base + 6,
                        h = base + 7;
    push(a, true, proto::GetSourcesReq{{file(r, 1), file(r, 1)}});
    push(b, false, proto::FoundSourcesRes{
                       file(r, 2), {{c, 4662}, {a, 4662}, {e, 4662}, {b, 4662}}});
    push(d, true, proto::PublishReq{{entry(file(r, 3), d),
                                     entry(file(r, 1), a)}});
    push(a, false, proto::FileSearchRes{{entry(file(r, 4), g),
                                         entry(file(r, 1), a),
                                         entry(file(r, 5), g),
                                         entry(file(r, 4), h)}});
    const FileId previous = file(r == 0 ? 0 : r - 1, 5);
    push(h, true, proto::GetSourcesReq{{file(r, 5), previous, file(r, 6)}});
    proto::FileSearchReq search;
    std::string word = "w";
    word += std::to_string(r);
    search.expr = proto::SearchExpr::keyword(std::move(word));
    push(g, true, std::move(search));
  }
  return frames;
}

/// Push `corpus` when given, else the frames the campaign `cfg` simulates.
inline void feed(const sim::CampaignConfig& cfg,
                 const std::vector<sim::TimedFrame>* corpus,
                 const sim::FrameSink& sink) {
  if (corpus != nullptr) {
    for (const sim::TimedFrame& f : *corpus) sink(f);
    return;
  }
  sim::CampaignSimulator simulator(cfg);
  simulator.run(sink);
}

/// A campaign's frames, background TCP over the same span, and `rounds`
/// copies of crafted_frames() at seeded times, merged in time order.
inline std::vector<sim::TimedFrame> hostile_corpus(
    const sim::CampaignConfig& cfg, std::size_t rounds = 25) {
  std::vector<sim::TimedFrame> frames;
  sim::CampaignSimulator simulator(cfg);
  simulator.run([&](const sim::TimedFrame& f) { frames.push_back(f); });

  sim::BackgroundConfig bg;
  bg.seed = cfg.seed;
  bg.duration = cfg.duration;
  bg.server_ip = cfg.server_ip;
  bg.syn_per_minute = 60.0;
  bg.data_rate_quiet = 1.0;
  bg.data_rate_burst = 10.0;
  bg.data_frame_bytes = 200;
  sim::BackgroundTraffic(bg).run(
      [&](const sim::TimedFrame& f) { frames.push_back(f); });

  const std::vector<Bytes> crafted =
      crafted_frames(cfg.server_ip, cfg.server_port);
  Rng rng(cfg.seed ^ 0x4057113ULL);
  for (std::size_t r = 0; r < rounds; ++r) {
    const SimTime at = rng.below(cfg.duration);
    // A round's frames stay adjacent, so its fragments arrive in order.
    for (std::size_t i = 0; i < crafted.size(); ++i) {
      frames.push_back(sim::TimedFrame{at + i, crafted[i]});
    }
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const sim::TimedFrame& a, const sim::TimedFrame& b) {
                     return a.time < b.time;
                   });
  return frames;
}

}  // namespace dtr::testing_frames
