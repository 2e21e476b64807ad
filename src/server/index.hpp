// The server's file and source indexes.
//
// An eDonkey directory server "indexes files and users, and their main role
// is to answer to searches for files (based on metadata like filename, size
// or filetype), and searches for providers (called sources) of given files"
// (paper §2.1).  FileIndex is *sharded*: files are partitioned into
// kShards shards by a hash of their fileID, and each shard is a complete
// mini-index of its own files — record map, inverted keyword postings,
// per-client provider lists — behind its own reader/writer lock.
// Publishes to different shards proceed in parallel; searches take shared
// locks and fan out across shards, merging per-shard results under the
// protocol caps.
//
// Determinism contract: answers match a single-map index exactly.  Every
// file carries the global sequence number of its first publish, the
// canonical answer order; per-shard partial results come back
// seq-ordered and the merge re-establishes the exact order a single-map
// index produces (posting lists are publication-ordered).
// tests/index_differential_test replays identical workloads against a
// reference single-map oracle and asserts byte-identical answers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hash/digest.hpp"
#include "obs/metrics.hpp"
#include "proto/messages.hpp"
#include "proto/search_expr.hpp"

namespace dtr::server {

/// One provider of a file, as stored by the server.
struct Source {
  proto::ClientId client = 0;
  std::uint16_t port = 0;
  bool operator==(const Source&) const = default;
};

/// Per-file record: canonical metadata plus the provider list.
struct FileRecord {
  std::string name;        // first-published filename wins (canonical)
  std::uint32_t size = 0;  // bytes
  std::string type;        // "audio", "video", ...
  std::vector<Source> sources;
  /// Global first-publish sequence number: the canonical search-answer
  /// order.
  std::uint64_t seq = 0;

  [[nodiscard]] std::uint32_t availability() const {
    return static_cast<std::uint32_t>(sources.size());
  }
};

class FileIndex {
 public:
  /// Shard count.  Answers do not depend on it; 4 measured fastest of
  /// {1, 4, 16, 64} on the flash-crowd campaign (DESIGN.md).
  static constexpr std::size_t kShards = 4;

  /// Add (or refresh) `entry.client_id` as a provider of the file described
  /// by `entry`.  Returns true if this was a new (file, provider) pair.
  /// Thread-safe; locks exactly one shard.
  bool publish(const proto::FileEntry& entry);

  /// Publish a whole announce batch, locking each shard at most once
  /// (entries are grouped by shard; within a shard they apply in input
  /// order, and first-publish ordering across the batch matches the
  /// per-entry path).  Returns the number of new (file, provider) pairs;
  /// `new_pair`, when given, receives the per-entry publish() results.
  std::size_t publish_batch(const std::vector<proto::FileEntry>& entries,
                            std::vector<bool>* new_pair = nullptr);

  /// Remove a provider from all its files (client went offline).  Visits
  /// every shard once; cost within a shard is proportional to the number
  /// of files the client provides there.
  void retract_client(proto::ClientId client);

  /// Borrowed pointer into the owning shard — valid only while no other
  /// thread mutates the index (tests, serial drivers).  Concurrent readers
  /// must use visit().
  [[nodiscard]] const FileRecord* find(const FileId& id) const;

  /// Run `fn(const FileRecord&)` under the owning shard's shared lock;
  /// returns false (fn not called) when the file is unknown.  This is the
  /// concurrency-safe read path: copy what you need inside `fn`.
  template <typename F>
  bool visit(const FileId& id, F&& fn) const {
    const Shard& shard = shard_for(id);
    std::shared_lock lock(shard.mutex);
    auto it = shard.files.find(id);
    if (it == shard.files.end()) return false;
    fn(it->second.record);
    return true;
  }

  [[nodiscard]] std::size_t file_count() const;
  [[nodiscard]] std::uint64_t source_count() const;

  /// All fileIDs matching a search expression, capped at `limit`, in
  /// first-publish order.  Thread-safe; takes shared locks shard by shard.
  [[nodiscard]] std::vector<FileId> search(const proto::SearchExpr& expr,
                                           std::size_t limit) const;

  /// Evaluate an expression against one record, scanning its name for
  /// each keyword leaf (exposed for tests; the reference index's oracle).
  /// search() gives the same answers from the keywords a record was
  /// indexed under.
  [[nodiscard]] static bool matches(const proto::SearchExpr& expr,
                                    const FileRecord& record);

  /// Register `server.index.*` instruments in `registry` and record into
  /// them from now on: publish/search/retract counters, size gauges,
  /// per-shard occupancy gauges, a candidates-evaluated histogram and a
  /// shard-lock-wait histogram.
  void bind_metrics(obs::Registry& registry);

  /// Checkpoint codec.  Records are written in global first-publish order
  /// and restore re-derives every per-shard structure (postings, by_seq,
  /// by_client) from them, so the restored index answers identically.
  /// Not thread-safe: quiesce before calling.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

 private:
  struct Entry;
  using FileNode = std::pair<const FileId, Entry>;

  /// One posting-list element: the file's canonical order key and its
  /// record.  unordered_map nodes never move, so the pointer stays valid
  /// until the file is unindexed, which clears it first.
  struct Posting {
    std::uint64_t seq = 0;
    const FileNode* file = nullptr;  // null: a tombstone
  };

  /// A seq-ascending posting list.  Unindexing a file turns its postings
  /// into tombstones (they keep their seq) instead of shifting the rest of
  /// the list; readers skip tombstones, and the list is compacted once
  /// they outnumber its live postings, so it stays within twice its live
  /// size and an unindex costs amortised O(log n).
  struct PostingList {
    std::vector<Posting> postings;
    std::size_t live = 0;

    void insert(std::uint64_t seq, const FileNode* file);
    /// Tombstone every posting at `seq` (one per occurrence of the
    /// keyword in the file's name).
    void erase(std::uint64_t seq);
  };
  using KeywordMap = std::unordered_map<std::string, PostingList>;
  /// A keyword as the shard interned it: its posting-list node, which
  /// lives as long as any file indexed under the keyword.
  using Keyword = KeywordMap::value_type*;

  /// A file as a shard stores it: the record plus the distinct keywords
  /// its name was indexed under (tokenised once, at first publish or
  /// restore), so a candidate test and an unindex never re-read the name.
  struct Entry {
    FileRecord record;
    std::vector<Keyword> keywords;
  };

  /// A search hit taken out of a shard: copied under the shard's lock.
  struct Hit {
    std::uint64_t seq = 0;
    FileId id;
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<FileId, Entry, DigestHasher> files;
    // keyword -> postings, one per occurrence of the keyword in a file's
    // name; a keyword leaves the map with its last live posting.
    KeywordMap keywords;
    // client -> files it provides *in this shard* (for retract_client).
    std::unordered_map<proto::ClientId, std::vector<FileId>> by_client;
    // Every file once: the canonical full-scan order for keyword-less
    // metadata queries.
    PostingList by_seq;
    // Lock-free size counters so file_count()/source_count() never block.
    std::atomic<std::uint64_t> file_count{0};
    std::atomic<std::uint64_t> source_count{0};
  };

  struct Metrics {
    obs::Counter* publishes = nullptr;
    obs::Counter* searches = nullptr;
    obs::Counter* retracts = nullptr;
    obs::Gauge* files = nullptr;
    obs::Gauge* sources = nullptr;
    obs::Histogram* candidates = nullptr;   // evaluated per search
    obs::Histogram* lock_wait = nullptr;    // contended shard acquisitions
    std::array<obs::Gauge*, kShards> shard_files{};  // occupancy per shard
  };

  Shard& shard_for(const FileId& id) { return shards_[shard_index(id)]; }
  const Shard& shard_for(const FileId& id) const {
    return shards_[shard_index(id)];
  }
  static std::size_t shard_index(const FileId& id) {
    return DigestHasher{}(id) & (kShards - 1);
  }

  /// Acquire `shard.mutex` (unique), timing contended waits into the
  /// lock-wait histogram.
  std::unique_lock<std::shared_mutex> lock_unique(const Shard& shard) const;
  std::shared_lock<std::shared_mutex> lock_shared(const Shard& shard) const;

  /// The publish core, under the shard lock.  `seq` is consumed only when
  /// the file is new.  Returns true for a new (file, provider) pair.
  bool publish_locked(Shard& shard, const proto::FileEntry& entry,
                      std::uint64_t seq);
  /// Post a new file (already in `shard.files`) under each keyword of its
  /// name and in the full-scan order, and record its keywords.
  static void index_file_locked(Shard& shard, FileNode& file);
  static void unindex_file_locked(Shard& shard, const Entry& entry);

  /// Append the first `limit` matches of one shard to `out` in canonical
  /// (seq) order; the caller holds the shard's lock.  `chosen` is the
  /// posting list to scan (empty = full by_seq scan); `words` are the
  /// query's lowered keywords in collect_keywords() order.  `evaluated`
  /// accumulates the number of candidate records tested.
  static void shard_partial_locked(const Shard& shard,
                                   const proto::SearchExpr& expr,
                                   const std::vector<std::string>& words,
                                   const std::string& chosen,
                                   std::size_t limit, std::vector<Hit>& out,
                                   std::uint64_t& evaluated);

  void update_size_gauges(std::size_t shard) const;
  void update_all_gauges() const;

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> next_seq_{1};

  Metrics metrics_;
};

}  // namespace dtr::server
