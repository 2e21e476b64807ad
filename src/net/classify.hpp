// Header-only frame classification.
//
// At the paper's capture point ~95% of the mirrored frames are TCP (§2.2:
// captured, not decoded), so the question "is this a UDP datagram at all?"
// is asked far more often than any other.  classify_frame() answers it from
// a handful of header bytes — ethertype, the IPv4 header, the protocol
// byte — without copying the frame, and applies exactly the accept/reject
// rules of decode_ethernet() + decode_ipv4() (it shares
// check_ipv4_header() with the latter), so a frame it calls kUdp always
// decodes to an Ipv4Packet carrying UDP, and every other class is the one
// the full decode would have counted.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace dtr::net {

enum class FrameClass : std::uint8_t {
  kNonIpv4,  ///< shorter than an ethernet header, or not EtherType IPv4
  kBadIp,    ///< IPv4 header rejected by check_ipv4_header()
  kTcp,
  kOtherIp,  ///< ICMP, ...
  kUdp,
};

/// Classify one captured ethernet frame from its headers alone.
FrameClass classify_frame(BytesView frame);

}  // namespace dtr::net
