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
//
// The dataset is not in the snapshot.  A checkpointing run appends every
// dataset byte it writes to one journal file next to its snapshots
// (kJournalFileName), and a snapshot records only where the journal stood
// at its boundary: the length and the MD5 of that prefix (JournalMark).  A
// resume verifies the prefix before it writes a byte of it.  The journal
// only grows while a run lasts, so a crash after a snapshot leaves a
// journal longer than that snapshot's mark, which is still valid.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "hash/md5.hpp"

namespace dtr::core {

/// Version 2: the parallel pipeline's section carries its feeder decoder
/// (the counters of every frame settled on the pushing thread) and one
/// pipeline clock instead of one per worker.  Version 3: the server's file
/// index no longer stores its shard count or search-cache counters.
/// Version 4: the `metrics` section holds only measured instruments and the
/// `series` section no longer stores a last-stored snapshot.  Version 5:
/// the `xml` section (the dataset prefix) gives way to the `journal`
/// section, a JournalMark into the checkpoint directory's dataset journal.
/// Earlier versions are rejected.
inline constexpr std::uint32_t kCheckpointVersion = 5;
inline constexpr char kCheckpointMagic[8] = {'D', 'T', 'R', 'C',
                                             'K', 'P', 'T', '1'};

/// The dataset journal's file name inside a checkpoint directory.
inline constexpr char kJournalFileName[] = "dataset.journal";

/// Where a snapshot's dataset prefix ends in the journal: its length and
/// the MD5 of those bytes.  The `journal` section's payload.
struct JournalMark {
  std::uint64_t length = 0;
  Digest128 digest;

  void save(ByteWriter& out) const;
  [[nodiscard]] bool restore(ByteReader& in);
};

/// Hash the first `mark.length` bytes of the journal at `path`.  Returns
/// the hash state after them when their digest is `mark.digest` (a writer
/// that appends to the journal continues from it); otherwise nullopt, with
/// `error` saying whether the journal is missing, too short or corrupt.
std::optional<Md5> verify_journal(const std::string& path,
                                  const JournalMark& mark, std::string& error);

/// Write the first `length` bytes of the journal at `path` to `out`.  False
/// when the journal cannot be read that far.
bool copy_journal_prefix(const std::string& path, std::uint64_t length,
                         std::ostream& out);

/// Accumulates named sections and writes the snapshot file.
class CheckpointBuilder {
 public:
  /// Add a section; later sections with the same name are rejected by the
  /// reader, so callers must keep names unique.
  void add(std::string name, Bytes payload);

  /// Atomically write the snapshot: stream it to `path + ".tmp"`, then
  /// rename over `path`.  Returns an empty string on success, else a
  /// description of the failure (the previous file at `path`, if any, is
  /// untouched).
  [[nodiscard]] std::string write_file(const std::string& path) const;

  [[nodiscard]] std::size_t section_count() const { return sections_.size(); }

 private:
  std::vector<std::pair<std::string, Bytes>> sections_;
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
