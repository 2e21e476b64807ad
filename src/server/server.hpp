// The eDonkey directory server.
//
// The server in the paper is a closed-source black box; this is a functional
// re-implementation of the behaviour the UDP capture observes: it answers
// stat/description/server-list requests, metadata file searches, source
// searches, and accepts publishes (see DESIGN.md on the publish dialect).
// Clients that are not directly reachable receive a "low ID" below 2^24
// (paper §2.1).
//
// handle() is safe to call from multiple threads concurrently: the index is
// sharded with per-shard locks, ServerStats counters are atomic, and the
// small client-tracking tables share one mutex (they are tiny compared to
// the index and never on a scan path).  answer ordering across threads is
// whatever the caller's scheduling produces — a serial driver gets the
// exact pre-sharding behaviour.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "obs/log.hpp"
#include "proto/messages.hpp"
#include "server/index.hpp"

namespace dtr::server {

struct ServerConfig {
  std::string name = "donkeytrace reference server";
  std::string description = "synthetic eDonkey directory server";
  std::uint16_t port = 4665;  // classic eDonkey server UDP port
  std::size_t max_search_results = 201;  // classic server answer cap
  std::size_t max_sources_per_answer = 255;  // u8 count field on the wire
  std::size_t max_files_per_publish = 200;
  std::size_t max_published_per_client = 1'000'000;  // effectively unlimited
  std::vector<proto::Endpoint> known_servers;  // answer to GetServerList
  /// First low ID handed out; lets tests start next to the 2^24 boundary.
  proto::ClientId first_low_id = 1;
};

/// Statistics the server keeps about the traffic it processed.  Counters
/// are atomic so concurrent handle() calls can bump them; reads are
/// monotonic per counter but not a consistent cross-counter snapshot while
/// serving is in flight — quiesce (join every thread calling handle())
/// before reconciling totals.
struct ServerStats {
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> answers{0};
  std::atomic<std::uint64_t> searches{0};
  std::atomic<std::uint64_t> source_requests{0};
  std::atomic<std::uint64_t> publishes{0};
  std::atomic<std::uint64_t> published_files_accepted{0};
  std::atomic<std::uint64_t> published_files_rejected{0};
  std::atomic<std::uint64_t> unanswerable{0};  // e.g. unknown-file sources

  ServerStats() = default;
  ServerStats(const ServerStats& other) { *this = other; }
  ServerStats& operator=(const ServerStats& other) {
    queries = other.queries.load();
    answers = other.answers.load();
    searches = other.searches.load();
    source_requests = other.source_requests.load();
    publishes = other.publishes.load();
    published_files_accepted = other.published_files_accepted.load();
    published_files_rejected = other.published_files_rejected.load();
    unanswerable = other.unanswerable.load();
    return *this;
  }
};

class EdonkeyServer {
 public:
  explicit EdonkeyServer(ServerConfig config = {});

  /// Process one client query; returns the answer messages to send back
  /// (zero or more — a batched GetSources yields one FoundSources per known
  /// fileID, like real servers).  Thread-safe.
  std::vector<proto::Message> handle(proto::ClientId client_ip,
                                     std::uint16_t client_port,
                                     const proto::Message& query,
                                     SimTime now);

  /// A client disconnected: drop its published files.  Thread-safe.
  void client_offline(proto::ClientId client_ip);

  /// The clientID the server would report for this client: its IP when
  /// directly reachable, else a stable per-client low ID (always in
  /// [1, 2^24), wrapping past the boundary).  Thread-safe.
  proto::ClientId client_id_for(proto::ClientId client_ip, bool reachable);

  /// Register the file index's `server.index.*` instruments in `registry`.
  void bind_metrics(obs::Registry& registry) { index_.bind_metrics(registry); }

  /// Attach a logger (may be null): answers truncated by protocol caps
  /// (search-result and per-answer source limits) log at debug.
  void bind_telemetry(obs::Logger* log) { log_ = log; }

  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const FileIndex& index() const { return index_; }

  /// Checkpoint codec: traffic counters, client bookkeeping tables and the
  /// nested file index.  Not thread-safe: quiesce before calling.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t user_count() const {
    std::lock_guard lock(client_mutex_);
    return static_cast<std::uint32_t>(seen_clients_.size());
  }

 private:
  proto::Message answer_stat(const proto::ServStatReq& q);
  proto::Message answer_desc() const;
  proto::Message answer_server_list() const;
  proto::Message answer_search(const proto::FileSearchReq& q, SimTime now);
  std::vector<proto::Message> answer_sources(const proto::GetSourcesReq& q,
                                             SimTime now);
  proto::Message accept_publish(proto::ClientId client,
                                std::uint16_t client_port,
                                const proto::PublishReq& q);

  ServerConfig config_;
  FileIndex index_;
  ServerStats stats_;
  // Client bookkeeping: small tables, one mutex (not on any scan path).
  mutable std::mutex client_mutex_;
  std::unordered_map<proto::ClientId, proto::ClientId> low_ids_;
  std::unordered_map<proto::ClientId, SimTime> seen_clients_;
  std::unordered_map<proto::ClientId, std::uint64_t> published_count_;
  proto::ClientId next_low_id_ = 1;
  obs::Logger* log_ = nullptr;
};

}  // namespace dtr::server
