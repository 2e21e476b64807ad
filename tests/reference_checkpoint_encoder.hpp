// reference_checkpoint_encode: the snapshot encoder CheckpointBuilder used
// before write_file() streamed, verbatim except that it takes the section
// list as an argument.  It builds the whole file in memory and hashes it
// in one pass.  The container tests hold the streaming writer to its
// bytes, and the robustness tests use it to build snapshot files to
// damage.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "core/checkpoint.hpp"
#include "hash/md5.hpp"

namespace dtr::core {

using ReferenceSections = std::vector<std::pair<std::string, BytesView>>;

inline Bytes reference_checkpoint_encode(const ReferenceSections& sections) {
  ByteWriter out;
  out.raw(kCheckpointMagic, sizeof(kCheckpointMagic));
  out.u32le(kCheckpointVersion);
  out.u32le(static_cast<std::uint32_t>(sections.size()));
  for (const auto& [name, payload] : sections) {
    out.u32le(static_cast<std::uint32_t>(name.size()));
    out.raw(name.data(), name.size());
    out.u64le(payload.size());
    out.raw(payload);
  }
  const Digest128 digest = Md5::digest(out.view());
  out.raw(digest.bytes.data(), digest.bytes.size());
  return std::move(out).take();
}

}  // namespace dtr::core
