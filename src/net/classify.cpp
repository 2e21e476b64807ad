#include "net/classify.hpp"

#include "net/ethernet.hpp"
#include "net/ipv4.hpp"

namespace dtr::net {

FrameClass classify_frame(BytesView frame) {
  if (frame.size() < kEthernetHeaderSize) return FrameClass::kNonIpv4;
  if ((frame[12] << 8 | frame[13]) != kEtherTypeIpv4) {
    return FrameClass::kNonIpv4;
  }
  const BytesView ip = frame.subspan(kEthernetHeaderSize);
  if (!check_ipv4_header(ip)) return FrameClass::kBadIp;
  switch (ip[9]) {  // protocol
    case kProtocolUdp:
      return FrameClass::kUdp;
    case kProtocolTcp:
      return FrameClass::kTcp;
    default:
      return FrameClass::kOtherIp;
  }
}

}  // namespace dtr::net
