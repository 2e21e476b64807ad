// Versioned, checksummed campaign snapshots.
//
// A ten-simulated-week campaign (the paper's horizon) must survive being
// stopped — or killed — without losing the anonymiser tables, the server
// index or the longitudinal series.  A snapshot is a flat container of
// named sections, one per subsystem; each subsystem serialises itself with
// the bounds-checked ByteWriter/ByteReader codecs it already uses for wire
// formats, so a corrupt or truncated snapshot is rejected exactly like a
// corrupt packet: cleanly, with a sticky error, never a crash.
//
// File layout (all integers little-endian):
//
//   magic   8 bytes  "DTRCKPT1"
//   version u32      kCheckpointVersion
//   count   u32      number of sections
//   count × { name_len u32, name bytes, payload_len u64, payload bytes }
//   md5     16 bytes MD5 of every preceding byte
//
// The trailing digest makes every single-bit corruption detectable, so the
// loader's contract is binary: a snapshot either restores completely or is
// rejected before any subsystem state is touched.  Writers go through
// write_file(), which streams the sections to a temporary — hashing as it
// writes, so no encoded copy of the snapshot is built — and renames it
// into place: a crash mid-checkpoint leaves the previous snapshot valid.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.hpp"

namespace dtr::core {

/// Version 2: the parallel pipeline's section carries its feeder decoder
/// (the counters of every frame settled on the pushing thread) and one
/// pipeline clock instead of one per worker.  Version 3: the server's file
/// index no longer stores its shard count or search-cache counters.
/// Version 4: the `metrics` section holds only measured instruments and the
/// `series` section no longer stores a last-stored snapshot.  Earlier
/// versions are rejected.
inline constexpr std::uint32_t kCheckpointVersion = 4;
inline constexpr char kCheckpointMagic[8] = {'D', 'T', 'R', 'C',
                                             'K', 'P', 'T', '1'};

/// Accumulates named sections and writes the snapshot file.
class CheckpointBuilder {
 public:
  /// Add a section; later sections with the same name are rejected by the
  /// reader, so callers must keep names unique.
  void add(std::string name, Bytes payload);

  /// Add a section that borrows `payload` instead of owning a copy: the
  /// bytes must stay valid and unchanged until write_file() returns.
  void add_borrowed(std::string name, BytesView payload);

  /// Atomically write the snapshot: stream it to `path + ".tmp"`, then
  /// rename over `path`.  Returns an empty string on success, else a
  /// description of the failure (the previous file at `path`, if any, is
  /// untouched).
  [[nodiscard]] std::string write_file(const std::string& path) const;

  [[nodiscard]] std::size_t section_count() const { return sections_.size(); }

 private:
  std::vector<std::pair<std::string, std::variant<Bytes, BytesView>>>
      sections_;
};

/// A parsed, checksum-verified snapshot.  Parsing validates the whole
/// container before any section is handed out.
class CheckpointView {
 public:
  /// Parse from raw bytes; on failure returns std::nullopt and sets
  /// `error` to a human-readable reason.
  static std::optional<CheckpointView> parse(BytesView data,
                                             std::string& error);

  /// Read and parse a snapshot file.
  static std::optional<CheckpointView> load(const std::string& path,
                                            std::string& error);

  /// The payload of a named section, or nullptr when absent.
  [[nodiscard]] const Bytes* section(std::string_view name) const;

  /// Convenience: a bounds-checked reader over a section.  A missing
  /// section yields a reader that is already failed.
  [[nodiscard]] ByteReader reader(std::string_view name) const;

  [[nodiscard]] std::size_t section_count() const { return sections_.size(); }

  /// All section names, sorted (the storage order).  Lets tooling rebuild
  /// or audit a snapshot without knowing the writer's section list.
  [[nodiscard]] std::vector<std::string> section_names() const;

 private:
  std::map<std::string, Bytes, std::less<>> sections_;
};

}  // namespace dtr::core
