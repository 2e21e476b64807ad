#include "net/ipv4.hpp"

namespace dtr::net {

std::uint16_t internet_checksum(BytesView data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(data[i] << 8 | data[i + 1]);
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i] << 8);
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

Bytes encode_ipv4(const Ipv4Packet& p) {
  ByteWriter w(kIpv4HeaderSize + p.payload.size());
  w.u8(0x45);  // version 4, IHL 5
  w.u8(0);     // DSCP/ECN
  w.u16be(static_cast<std::uint16_t>(kIpv4HeaderSize + p.payload.size()));
  w.u16be(p.identification);
  std::uint16_t flags_frag =
      static_cast<std::uint16_t>((p.dont_fragment ? 0x4000 : 0) |
                                 (p.more_fragments ? 0x2000 : 0) |
                                 (p.fragment_offset & 0x1FFF));
  w.u16be(flags_frag);
  w.u8(p.ttl);
  w.u8(p.protocol);
  w.u16be(0);  // checksum placeholder
  w.u32be(p.src);
  w.u32be(p.dst);
  std::uint16_t csum = internet_checksum(w.view().subspan(0, kIpv4HeaderSize));
  w.patch_u16be(10, csum);
  w.raw(p.payload);
  return std::move(w).take();
}

std::optional<Ipv4Extent> check_ipv4_header(BytesView data) {
  if (data.size() < kIpv4HeaderSize) return std::nullopt;
  if ((data[0] >> 4) != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(data[0] & 0x0F) * 4;
  if (ihl < kIpv4HeaderSize || data.size() < ihl) return std::nullopt;
  if (internet_checksum(data.subspan(0, ihl)) != 0) return std::nullopt;
  const std::size_t total_length =
      static_cast<std::size_t>(data[2] << 8 | data[3]);
  if (total_length < ihl || total_length > data.size()) return std::nullopt;
  return Ipv4Extent{ihl, total_length};
}

std::optional<Ipv4Packet> decode_ipv4(BytesView data) {
  const auto extent = check_ipv4_header(data);
  if (!extent) return std::nullopt;

  ByteReader r(data.subspan(4, 16));
  Ipv4Packet p;
  p.identification = r.u16be();
  std::uint16_t flags_frag = r.u16be();
  p.dont_fragment = (flags_frag & 0x4000) != 0;
  p.more_fragments = (flags_frag & 0x2000) != 0;
  p.fragment_offset = flags_frag & 0x1FFF;
  p.ttl = r.u8();
  p.protocol = r.u8();
  r.skip(2);  // checksum already verified
  p.src = r.u32be();
  p.dst = r.u32be();
  p.payload.assign(
      data.begin() + static_cast<std::ptrdiff_t>(extent->header_length),
      data.begin() + static_cast<std::ptrdiff_t>(extent->total_length));
  return p;
}

std::vector<Ipv4Packet> fragment_ipv4(const Ipv4Packet& p, std::size_t mtu) {
  std::vector<Ipv4Packet> out;
  const std::size_t max_payload = mtu - kIpv4HeaderSize;
  if (p.payload.size() <= max_payload) {
    out.push_back(p);
    return out;
  }
  // Fragment payload sizes must be multiples of 8 except the last.
  const std::size_t chunk = max_payload & ~std::size_t{7};
  std::size_t offset = 0;
  while (offset < p.payload.size()) {
    std::size_t n = std::min(chunk, p.payload.size() - offset);
    Ipv4Packet frag = p;
    frag.payload.assign(p.payload.begin() + static_cast<std::ptrdiff_t>(offset),
                        p.payload.begin() +
                            static_cast<std::ptrdiff_t>(offset + n));
    frag.fragment_offset = static_cast<std::uint16_t>(offset / 8);
    frag.more_fragments = (offset + n) < p.payload.size();
    out.push_back(std::move(frag));
    offset += n;
  }
  return out;
}

std::optional<Ipv4Packet> Ipv4Reassembler::push(const Ipv4Packet& p,
                                                SimTime now) {
  if (!p.is_fragment()) return p;
  ++stats_.fragments_seen;
  obs::inc(metrics_.fragments);

  Key key{p.src, p.dst, p.identification, p.protocol};
  Partial& partial = pending_[key];
  if (partial.pieces.empty()) {
    partial.first_seen = now;
    partial.header_template = p;
    partial.header_template.payload.clear();
    partial.header_template.more_fragments = false;
    partial.header_template.fragment_offset = 0;
  }

  const std::uint32_t offset = static_cast<std::uint32_t>(p.fragment_offset) * 8;
  auto [it, inserted] = partial.pieces.emplace(offset, p.payload);
  if (!inserted) {
    ++stats_.overlapping;
    obs::inc(metrics_.overlapping);
    DTR_LOG_WARN(log_, "reassembly", now,
                 "overlapping fragment dropped (id " << p.identification
                                                     << ", offset " << offset
                                                     << ")");
    return std::nullopt;
  }
  if (!p.more_fragments) {
    partial.total_size = offset + static_cast<std::uint32_t>(p.payload.size());
  }
  auto whole = try_complete(key, partial);
  obs::set(metrics_.pending, static_cast<std::int64_t>(pending_.size()));
  return whole;
}

std::optional<Ipv4Packet> Ipv4Reassembler::try_complete(const Key& key,
                                                        Partial& partial) {
  if (!partial.total_size) return std::nullopt;
  std::uint32_t cursor = 0;
  for (const auto& [offset, piece] : partial.pieces) {
    if (offset != cursor) return std::nullopt;  // hole (or overlap)
    cursor += static_cast<std::uint32_t>(piece.size());
  }
  if (cursor != *partial.total_size) return std::nullopt;

  Ipv4Packet whole = partial.header_template;
  whole.payload.reserve(cursor);
  for (const auto& [offset, piece] : partial.pieces) {
    whole.payload.insert(whole.payload.end(), piece.begin(), piece.end());
  }
  pending_.erase(key);
  ++stats_.reassembled;
  obs::inc(metrics_.reassembled);
  return whole;
}

void Ipv4Reassembler::expire(SimTime now) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.first_seen > timeout_) {
      obs::record(flight_, obs::FlightEvent::kReassemblyExpired, now,
                  it->first.id, it->second.pieces.size());
      DTR_LOG_WARN(log_, "reassembly", now,
                   "expired partial datagram (id "
                       << it->first.id << ", " << it->second.pieces.size()
                       << " fragments held)");
      it = pending_.erase(it);
      ++stats_.expired;
      obs::inc(metrics_.expired);
    } else {
      ++it;
    }
  }
  obs::set(metrics_.pending, static_cast<std::int64_t>(pending_.size()));
}

void Ipv4Reassembler::save_state(ByteWriter& out) const {
  out.u64le(stats_.fragments_seen);
  out.u64le(stats_.reassembled);
  out.u64le(stats_.expired);
  out.u64le(stats_.overlapping);
  out.u64le(pending_.size());
  for (const auto& [key, partial] : pending_) {
    out.u32le(key.src);
    out.u32le(key.dst);
    out.u16le(key.id);
    out.u8(key.protocol);
    out.u64le(partial.first_seen);
    out.u8(partial.total_size.has_value() ? 1 : 0);
    out.u32le(partial.total_size.value_or(0));
    const Ipv4Packet& h = partial.header_template;
    out.u8(h.ttl);
    out.u8(h.protocol);
    out.u32le(h.src);
    out.u32le(h.dst);
    out.u16le(h.identification);
    out.u8(static_cast<std::uint8_t>((h.dont_fragment ? 1 : 0) |
                                     (h.more_fragments ? 2 : 0)));
    out.u16le(h.fragment_offset);
    out.u64le(partial.pieces.size());
    for (const auto& [offset, piece] : partial.pieces) {
      out.u32le(offset);
      out.u64le(piece.size());
      out.raw(piece);
    }
  }
}

bool Ipv4Reassembler::restore_state(ByteReader& in) {
  stats_.fragments_seen = in.u64le();
  stats_.reassembled = in.u64le();
  stats_.expired = in.u64le();
  stats_.overlapping = in.u64le();
  pending_.clear();
  const std::uint64_t entries = in.u64le();
  if (entries > in.remaining() / 32) return false;
  for (std::uint64_t i = 0; i < entries; ++i) {
    Key key{};
    key.src = in.u32le();
    key.dst = in.u32le();
    key.id = in.u16le();
    key.protocol = in.u8();
    Partial partial;
    partial.first_seen = in.u64le();
    const bool has_total = in.u8() != 0;
    const std::uint32_t total = in.u32le();
    if (has_total) partial.total_size = total;
    Ipv4Packet& h = partial.header_template;
    h.ttl = in.u8();
    h.protocol = in.u8();
    h.src = in.u32le();
    h.dst = in.u32le();
    h.identification = in.u16le();
    const std::uint8_t flags = in.u8();
    h.dont_fragment = (flags & 1) != 0;
    h.more_fragments = (flags & 2) != 0;
    h.fragment_offset = in.u16le();
    const std::uint64_t pieces = in.u64le();
    if (pieces > in.remaining() / 12) return false;
    for (std::uint64_t j = 0; j < pieces; ++j) {
      const std::uint32_t offset = in.u32le();
      const std::uint64_t len = in.u64le();
      if (len > in.remaining()) return false;
      BytesView piece = in.raw(static_cast<std::size_t>(len));
      if (!in.ok()) return false;
      if (!partial.pieces
               .emplace(offset, Bytes(piece.begin(), piece.end()))
               .second) {
        return false;
      }
    }
    if (!pending_.emplace(key, std::move(partial)).second) return false;
  }
  return in.ok();
}

void Ipv4Reassembler::bind_metrics(obs::Registry& registry) {
  metrics_.fragments = &registry.counter("net.reassembly.fragments");
  metrics_.reassembled = &registry.counter("net.reassembly.reassembled");
  metrics_.expired = &registry.counter("net.reassembly.expired");
  metrics_.overlapping = &registry.counter("net.reassembly.overlapping");
  metrics_.pending = &registry.gauge("net.reassembly.pending");
}

}  // namespace dtr::net
