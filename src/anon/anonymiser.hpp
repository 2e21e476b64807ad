// Full-message anonymisation (paper §2.4): every decoded eDonkey message is
// rewritten with
//   * clientIDs   -> dense order-of-appearance integers,
//   * fileIDs     -> dense order-of-appearance integers,
//   * strings     -> their MD5 digest (search keywords, filenames, types,
//                    server name/description),
//   * file sizes  -> kilobytes (precision reduction),
//   * timestamps  -> time elapsed since the beginning of the capture.
//
// The output model below mirrors the released dataset's XML schema; the
// xmlio module serialises it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"
#include "common/clock.hpp"
#include "hash/digest.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "proto/messages.hpp"

namespace dtr::anon {

/// MD5-anonymised string token.
using StringToken = Digest128;

/// One anonymised metadata item on a file entry.  Only the metadata the
/// dataset keeps are retained; unknown tags are dropped (they could leak).
struct AnonFileMeta {
  std::optional<StringToken> name;   // md5(filename)
  std::optional<std::uint32_t> size_kb;
  std::optional<StringToken> type;   // md5(filetype)
  std::optional<std::uint32_t> availability;
  bool operator==(const AnonFileMeta&) const = default;
};

struct AnonFileEntry {
  AnonFileId file = 0;
  AnonClientId provider = 0;
  std::uint16_t port = 0;
  AnonFileMeta meta;
  bool operator==(const AnonFileEntry&) const = default;
};

struct AnonEndpoint {
  AnonClientId client = 0;
  std::uint16_t port = 0;
  bool operator==(const AnonEndpoint&) const = default;
};

/// Anonymised search expression node (flattened: the dataset stores the
/// keyword tokens and numeric constraints; tree shape is kept for fidelity).
struct AnonSearchExpr;
using AnonSearchExprPtr = std::unique_ptr<AnonSearchExpr>;
struct AnonSearchExpr {
  proto::SearchExpr::Kind kind = proto::SearchExpr::Kind::kKeyword;
  proto::BoolOp op = proto::BoolOp::kAnd;
  AnonSearchExprPtr left, right;
  std::optional<StringToken> token;        // keyword / meta-string value
  std::optional<StringToken> tag_token;    // constrained tag name
  std::uint32_t number = 0;                // numeric constraint (KB if size)
  proto::NumCmp cmp = proto::NumCmp::kMin;

  [[nodiscard]] std::size_t node_count() const;
  void collect_tokens(std::vector<StringToken>& out) const;
};

// Anonymised message bodies, one per protocol message type.
struct AServStatReq {
  bool operator==(const AServStatReq&) const = default;
};
struct AServStatRes {
  std::uint32_t users = 0, files = 0;
  bool operator==(const AServStatRes&) const = default;
};
struct AServerDescReq {
  bool operator==(const AServerDescReq&) const = default;
};
struct AServerDescRes {
  StringToken name, description;
  bool operator==(const AServerDescRes&) const = default;
};
struct AGetServerList {
  bool operator==(const AGetServerList&) const = default;
};
struct AServerList {
  std::uint32_t count = 0;  // server endpoints are fully redacted
  bool operator==(const AServerList&) const = default;
};
struct AFileSearchReq {
  AnonSearchExprPtr expr;
};
struct AFileSearchRes {
  std::vector<AnonFileEntry> results;
  bool operator==(const AFileSearchRes&) const = default;
};
struct AGetSourcesReq {
  std::vector<AnonFileId> files;
  bool operator==(const AGetSourcesReq&) const = default;
};
struct AFoundSourcesRes {
  AnonFileId file = 0;
  std::vector<AnonEndpoint> sources;
  bool operator==(const AFoundSourcesRes&) const = default;
};
struct APublishReq {
  std::vector<AnonFileEntry> files;
  bool operator==(const APublishReq&) const = default;
};
struct APublishAck {
  std::uint32_t accepted = 0;
  bool operator==(const APublishAck&) const = default;
};

using AnonMessage =
    std::variant<AServStatReq, AServStatRes, AServerDescReq, AServerDescRes,
                 AGetServerList, AServerList, AFileSearchReq, AFileSearchRes,
                 AGetSourcesReq, AFoundSourcesRes, APublishReq, APublishAck>;

/// One line of the released dataset: a timestamped, anonymised message with
/// the peer it came from / went to.
struct AnonEvent {
  SimTime time = 0;          // relative to capture start
  AnonClientId peer = 0;     // the client side of the dialog
  bool is_query = false;     // client->server query vs server answer
  AnonMessage message;
};

// Table-free pieces of the scheme: string hashing and precision reduction
// never touch the order-of-appearance tables.
StringToken anon_hash_string(std::string_view s);
AnonFileMeta anon_meta(const proto::TagList& tags);
AnonSearchExprPtr anon_expr(const proto::SearchExpr& e);

/// The read-only half of §2.4, safe against tables another thread inserts
/// into: every ID is resolved with non-inserting lookup(), and an ID not
/// assigned yet leaves its not-seen sentinel (kClientNotSeen /
/// kFileNotSeen) in its slot — a *hole*.  Everything else (string hashes,
/// sizes, the message shape) is final.  Pipeline workers resolve every
/// message with this; Anonymiser::fill() later assigns the holes, in
/// sequence order, on the one thread that writes the tables.
///
/// The tally mirrors exactly the lookups a serial inserting pass counts for
/// the same message, holes included, so committing it keeps
/// `anon.client_lookups` / `anon.file_lookups` identical to a serial run.
class ReadOnlyAnonymiser {
 public:
  struct Tally {
    std::uint64_t client_lookups = 0;
    std::uint64_t file_lookups = 0;
    std::uint64_t holes = 0;  // IDs left unassigned
  };

  ReadOnlyAnonymiser(const ClientAnonymiser& clients,
                     const FileIdAnonymiser& files)
      : clients_(clients), files_(files) {}

  /// The event for `msg`, with a hole for every ID not assigned yet; adds
  /// this message's lookups and holes to `tally`.
  AnonEvent resolve(SimTime time, proto::ClientId peer_ip,
                    const proto::Message& msg, Tally& tally) const;

  /// resolve(), or nullopt when it left any hole.  `tally` is filled
  /// either way.
  std::optional<AnonEvent> try_anonymise(SimTime time, proto::ClientId peer_ip,
                                         const proto::Message& msg,
                                         Tally& tally) const;

 private:
  const ClientAnonymiser& clients_;
  const FileIdAnonymiser& files_;
};

/// Applies the anonymisation scheme, sharing the clientID table and fileID
/// store across the whole capture (order-of-appearance must be global).
/// It is the tables' only writer.
class Anonymiser {
 public:
  Anonymiser(ClientAnonymiser& clients, FileIdAnonymiser& files)
      : clients_(clients), files_(files), reader_(clients, files) {}

  /// `peer_ip` is the UDP/IP-level address of the client (which is also its
  /// clientID when it has a high ID — the reason the paper must anonymise
  /// in real time at both protocol levels).  The read-only resolve pass,
  /// then fill().
  AnonEvent anonymise(SimTime time, proto::ClientId peer_ip,
                      const proto::Message& msg);

  /// Finish an event ReadOnlyAnonymiser::resolve() made from `msg` and
  /// `peer_ip` with `tally`: assign every hole with the inserting tables in
  /// the serial visit order — the peer first; then, per file entry, the
  /// file before its provider; in a sources answer, the file before its
  /// clients — then commit the tally and count the event.  Calls must come
  /// in capture order: that order *is* the dense numbering.
  void fill(AnonEvent& event, proto::ClientId peer_ip,
            const proto::Message& msg, const ReadOnlyAnonymiser::Tally& tally);

  static StringToken hash_string(std::string_view s);

  /// Register `anon.*` instruments in `registry` and record into them from
  /// now on: events anonymised, clientID/fileID table lookups, and the
  /// distinct-entry gauges behind Table 1's population counts.
  void bind_metrics(obs::Registry& registry);

  /// Attach a logger (may be null): population milestones — the distinct
  /// client/file tables doubling past each power of two — log at debug, a
  /// cheap way to watch Table 1's populations grow during a long campaign.
  void bind_telemetry(obs::Logger* log) { log_ = log; }

  [[nodiscard]] std::uint64_t distinct_clients() const {
    return clients_.distinct();
  }
  [[nodiscard]] std::uint64_t distinct_files() const {
    return files_.distinct();
  }

  /// Checkpoint codec for the milestone cursors, so a resumed campaign
  /// logs the same population milestones as an uninterrupted one (the
  /// tables themselves checkpoint separately).
  void save_state(ByteWriter& out) const {
    out.u64le(next_client_milestone_);
    out.u64le(next_file_milestone_);
  }
  bool restore_state(ByteReader& in) {
    next_client_milestone_ = in.u64le();
    next_file_milestone_ = in.u64le();
    return in.ok();
  }

 private:
  void log_milestones(SimTime time);

  struct Metrics {
    obs::Counter* events = nullptr;
    obs::Counter* client_lookups = nullptr;
    obs::Counter* file_lookups = nullptr;
    obs::Gauge* clients_distinct = nullptr;
    obs::Gauge* files_distinct = nullptr;
  };

  ClientAnonymiser& clients_;
  FileIdAnonymiser& files_;
  ReadOnlyAnonymiser reader_;
  Metrics metrics_;
  obs::Logger* log_ = nullptr;
  std::uint64_t next_client_milestone_ = 1;
  std::uint64_t next_file_milestone_ = 1;
};

}  // namespace dtr::anon
