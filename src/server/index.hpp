// The server's file and source indexes.
//
// An eDonkey directory server "indexes files and users, and their main role
// is to answer to searches for files (based on metadata like filename, size
// or filetype), and searches for providers (called sources) of given files"
// (paper §2.1).  The paper's server did this for ~90 M distinct clients; a
// single-map index behind one logical owner cannot scale with that
// population, so FileIndex is *sharded*: files are partitioned into N
// power-of-two shards by a hash of their fileID, and each shard is a
// complete mini-index of its own files — record map, inverted keyword
// postings, per-client provider lists — behind its own reader/writer lock.
// Publishes to different shards proceed in parallel; searches take shared
// locks and fan out across shards, merging per-shard results under the
// protocol caps.
//
// Determinism contract: answers are *independent of the shard count*.
// Every file carries the global sequence number of its first publish, the
// canonical answer order; per-shard partial results come back
// seq-ordered and the merge re-establishes the exact order the old
// single-map index produced (posting lists were publication-ordered).
// tests/index_differential_test replays identical workloads against a
// reference single-map oracle and shard counts {1,2,4,8} and asserts
// byte-identical answers.
//
// On top sits a bounded LRU keyword-search cache storing *per-shard*
// partial results, each tagged with the generation of the shard it was
// computed from.  A publish or retract bumps only its shard's generation,
// so a cached search revalidates cheaply: untouched shards are reused,
// only churned shards are recomputed.  That confinement of invalidation is
// what makes the cache effective under a live publish stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
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
  /// order, identical for every shard count.
  std::uint64_t seq = 0;

  [[nodiscard]] std::uint32_t availability() const {
    return static_cast<std::uint32_t>(sources.size());
  }
};

struct FileIndexConfig {
  /// Number of shards; rounded up to a power of two, clamped to [1, 64].
  std::size_t shards = 4;
  /// Bounded LRU search-cache capacity in entries; 0 disables the cache.
  std::size_t search_cache_entries = 0;
};

class FileIndex {
 public:
  explicit FileIndex(FileIndexConfig config = {});

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
    fn(it->second);
    return true;
  }

  [[nodiscard]] std::size_t file_count() const;
  [[nodiscard]] std::uint64_t source_count() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// All fileIDs matching a search expression, capped at `limit`, in
  /// first-publish order (independent of the shard count).  Thread-safe;
  /// takes shared locks shard by shard.
  [[nodiscard]] std::vector<FileId> search(const proto::SearchExpr& expr,
                                           std::size_t limit) const;

  /// Evaluate an expression against one record (exposed for tests).
  [[nodiscard]] static bool matches(const proto::SearchExpr& expr,
                                    const FileRecord& record);

  /// Register `server.index.*` instruments in `registry` and record into
  /// them from now on: publish/search/retract counters, size gauges,
  /// per-shard occupancy gauges, cache hit/miss/eviction counters, a
  /// candidates-evaluated histogram and a shard-lock-wait histogram.
  void bind_metrics(obs::Registry& registry);

  /// Search-cache counters (also exported via bind_metrics); zeros while
  /// the cache is disabled.
  struct CacheStats {
    std::uint64_t hits = 0;          // every shard partial reused
    std::uint64_t partial_hits = 0;  // entry found, some shards recomputed
    std::uint64_t misses = 0;        // no usable entry
    std::uint64_t evictions = 0;     // LRU bound enforced
  };
  [[nodiscard]] CacheStats cache_stats() const;

  /// Checkpoint codec.  Records are written in global first-publish order
  /// and restore re-derives every per-shard structure (postings, by_seq,
  /// by_client) from them, so the restored index answers identically for
  /// the same shard count.  The search cache is NOT serialized: restore
  /// clears it, so a cache-enabled resumed run may report different
  /// cache hit/miss counters than an uninterrupted one (answers are
  /// unaffected).  Not thread-safe: quiesce before calling.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

 private:
  /// One posting-list element: the file plus its canonical order key.
  struct Posting {
    std::uint64_t seq = 0;
    FileId id;
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<FileId, FileRecord, DigestHasher> files;
    // keyword -> postings, seq-ascending for any serial publish history.
    std::unordered_map<std::string, std::vector<Posting>> keywords;
    // client -> files it provides *in this shard* (for retract_client).
    std::unordered_map<proto::ClientId, std::vector<FileId>> by_client;
    // Canonical full-scan order for keyword-less metadata queries.
    std::map<std::uint64_t, FileId> by_seq;
    // Bumped on every mutation; the search cache revalidates against it.
    std::atomic<std::uint64_t> generation{0};
    // Lock-free size counters so file_count()/source_count() never block.
    std::atomic<std::uint64_t> file_count{0};
    std::atomic<std::uint64_t> source_count{0};
  };

  struct CacheEntry {
    std::string chosen;  // scanned keyword; empty = full metadata scan
    std::vector<std::uint64_t> gens;  // per shard, at compute time
    // Posting-list length per [shard][query word]: revalidation recomputes
    // the rarest-keyword choice from these without touching clean shards.
    std::vector<std::vector<std::uint64_t>> word_counts;
    std::vector<std::vector<Posting>> partials;  // per shard, seq-ascending
    std::list<std::string>::iterator lru;
  };

  struct Metrics {
    obs::Counter* publishes = nullptr;
    obs::Counter* searches = nullptr;
    obs::Counter* retracts = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_partial_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_evictions = nullptr;
    obs::Gauge* files = nullptr;
    obs::Gauge* sources = nullptr;
    obs::Histogram* candidates = nullptr;   // evaluated per search
    obs::Histogram* lock_wait = nullptr;    // contended shard acquisitions
    std::vector<obs::Gauge*> shard_files;   // occupancy per shard
  };

  Shard& shard_for(const FileId& id) { return *shards_[shard_index(id)]; }
  const Shard& shard_for(const FileId& id) const {
    return *shards_[shard_index(id)];
  }
  std::size_t shard_index(const FileId& id) const {
    return DigestHasher{}(id) & shard_mask_;
  }

  /// Acquire `shard.mutex` (unique), timing contended waits into the
  /// lock-wait histogram.
  std::unique_lock<std::shared_mutex> lock_unique(const Shard& shard) const;
  std::shared_lock<std::shared_mutex> lock_shared(const Shard& shard) const;

  /// The publish core, under the shard lock.  `seq` is consumed only when
  /// the file is new.  Returns true for a new (file, provider) pair.
  bool publish_locked(Shard& shard, const proto::FileEntry& entry,
                      std::uint64_t seq);
  void unindex_file_locked(Shard& shard, const FileRecord& record);

  /// First `limit` matches of one shard in canonical (seq) order; the
  /// caller holds the shard's lock.  `chosen` is the posting list to scan
  /// (empty = full by_seq scan).  `evaluated` accumulates the number of
  /// candidate records tested.
  std::vector<Posting> shard_partial_locked(const Shard& shard,
                                            const proto::SearchExpr& expr,
                                            const std::string& chosen,
                                            std::size_t limit,
                                            std::uint64_t* evaluated) const;

  /// Posting-list length of each (lowered) query word in one shard; the
  /// caller holds the shard's lock.
  static std::vector<std::uint64_t> counts_locked(
      const Shard& shard, const std::vector<std::string>& words);

  void update_size_gauges(std::size_t shard) const;
  void update_all_gauges() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  std::atomic<std::uint64_t> next_seq_{1};

  std::size_t cache_capacity_ = 0;
  mutable std::mutex cache_mutex_;
  mutable std::list<std::string> cache_lru_;  // front = most recent
  mutable std::unordered_map<std::string, CacheEntry> cache_;
  mutable CacheStats cache_stats_;  // guarded by cache_mutex_

  Metrics metrics_;
};

}  // namespace dtr::server
