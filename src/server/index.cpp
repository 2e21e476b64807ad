#include "server/index.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/strings.hpp"
#include "obs/profiler.hpp"

namespace dtr::server {

namespace {

std::size_t round_to_pow2_clamped(std::size_t n) {
  if (n < 1) n = 1;
  if (n > 64) n = 64;
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

FileIndex::FileIndex(FileIndexConfig config)
    : cache_capacity_(config.search_cache_entries) {
  const std::size_t n = round_to_pow2_clamped(config.shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = n - 1;
}

std::unique_lock<std::shared_mutex> FileIndex::lock_unique(
    const Shard& shard) const {
  std::unique_lock lock(shard.mutex, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  // Contended: time only the blocking path, so a serial run observes
  // nothing (keeping serial metric output reproducible) and a concurrent
  // run measures exactly the waits that cost it throughput.
  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::ProfScope prof(obs::ThreadState::kLockWait);
    lock.lock();
  }
  obs::observe(metrics_.lock_wait, seconds_since(t0));
  return lock;
}

std::shared_lock<std::shared_mutex> FileIndex::lock_shared(
    const Shard& shard) const {
  std::shared_lock lock(shard.mutex, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::ProfScope prof(obs::ThreadState::kLockWait);
    lock.lock();
  }
  obs::observe(metrics_.lock_wait, seconds_since(t0));
  return lock;
}

bool FileIndex::publish_locked(Shard& shard, const proto::FileEntry& entry,
                               std::uint64_t seq) {
  auto [it, is_new_file] = shard.files.try_emplace(entry.file_id);
  FileRecord& record = it->second;
  if (is_new_file) {
    record.seq = seq;
    if (auto name = proto::tag_string(entry.tags, proto::TagName::kFileName))
      record.name = *name;
    if (auto size = proto::tag_u32(entry.tags, proto::TagName::kFileSize))
      record.size = *size;
    if (auto type = proto::tag_string(entry.tags, proto::TagName::kFileType))
      record.type = *type;
    for (const std::string& kw : tokenize_keywords(record.name)) {
      auto& postings = shard.keywords[kw];
      // Keep posting lists seq-ascending even when concurrent publishers
      // interleave; serial histories append at the end.
      auto pos = std::upper_bound(
          postings.begin(), postings.end(), seq,
          [](std::uint64_t s, const Posting& p) { return s < p.seq; });
      postings.insert(pos, Posting{seq, entry.file_id});
    }
    shard.by_seq.emplace(seq, entry.file_id);
    shard.file_count.fetch_add(1, std::memory_order_relaxed);
  }

  Source src{entry.client_id, entry.port};
  auto found = std::find_if(
      record.sources.begin(), record.sources.end(),
      [&](const Source& s) { return s.client == src.client; });
  if (found != record.sources.end()) {
    found->port = src.port;  // refresh
    return false;
  }
  record.sources.push_back(src);
  shard.by_client[entry.client_id].push_back(entry.file_id);
  shard.source_count.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FileIndex::publish(const proto::FileEntry& entry) {
  obs::inc(metrics_.publishes);
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t si = shard_index(entry.file_id);
  Shard& shard = *shards_[si];
  bool is_new = false;
  {
    auto lock = lock_unique(shard);
    is_new = publish_locked(shard, entry, seq);
    if (is_new) shard.generation.fetch_add(1, std::memory_order_relaxed);
  }
  update_size_gauges(si);
  return is_new;
}

std::size_t FileIndex::publish_batch(
    const std::vector<proto::FileEntry>& entries,
    std::vector<bool>* new_pair) {
  if (new_pair != nullptr) new_pair->assign(entries.size(), false);
  if (entries.empty()) return 0;
  obs::inc(metrics_.publishes, entries.size());

  // Reserve a contiguous seq block up front: entry i gets base + i, so the
  // canonical order matches the per-entry publish() path even though the
  // shard-grouped application below visits shards out of input order.
  const std::uint64_t base =
      next_seq_.fetch_add(entries.size(), std::memory_order_relaxed);

  std::vector<std::vector<std::size_t>> by_shard(shards_.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    by_shard[shard_index(entries[i].file_id)].push_back(i);
  }

  std::size_t new_pairs = 0;
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    if (by_shard[si].empty()) continue;
    Shard& shard = *shards_[si];
    bool mutated = false;
    {
      auto lock = lock_unique(shard);
      for (std::size_t idx : by_shard[si]) {
        if (publish_locked(shard, entries[idx], base + idx)) {
          mutated = true;
          ++new_pairs;
          if (new_pair != nullptr) (*new_pair)[idx] = true;
        }
      }
      if (mutated) shard.generation.fetch_add(1, std::memory_order_relaxed);
    }
    update_size_gauges(si);
  }
  return new_pairs;
}

void FileIndex::unindex_file_locked(Shard& shard, const FileRecord& record) {
  // Posting lists are seq-ascending, so the file's postings in a list (one
  // per occurrence of the keyword in its name) are the run at record.seq.
  const auto by_seq = [](const Posting& a, const Posting& b) {
    return a.seq < b.seq;
  };
  const Posting key{record.seq, FileId{}};
  for (const std::string& kw : tokenize_keywords(record.name)) {
    auto it = shard.keywords.find(kw);
    if (it == shard.keywords.end()) continue;  // a repeat, already erased
    auto& postings = it->second;
    const auto [first, last] =
        std::equal_range(postings.begin(), postings.end(), key, by_seq);
    postings.erase(first, last);
    if (postings.empty()) shard.keywords.erase(it);
  }
  shard.by_seq.erase(record.seq);
}

void FileIndex::retract_client(proto::ClientId client) {
  obs::inc(metrics_.retracts);
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& shard = *shards_[si];
    bool mutated = false;
    {
      auto lock = lock_unique(shard);
      auto it = shard.by_client.find(client);
      if (it == shard.by_client.end()) continue;
      for (const FileId& id : it->second) {
        auto fit = shard.files.find(id);
        if (fit == shard.files.end()) continue;
        auto& sources = fit->second.sources;
        auto src = std::find_if(
            sources.begin(), sources.end(),
            [&](const Source& s) { return s.client == client; });
        if (src != sources.end()) {
          sources.erase(src);
          shard.source_count.fetch_sub(1, std::memory_order_relaxed);
          mutated = true;
        }
        if (sources.empty()) {
          unindex_file_locked(shard, fit->second);
          shard.files.erase(fit);
          shard.file_count.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      shard.by_client.erase(it);
      if (mutated) shard.generation.fetch_add(1, std::memory_order_relaxed);
    }
    update_size_gauges(si);
  }
}

const FileRecord* FileIndex::find(const FileId& id) const {
  const Shard& shard = shard_for(id);
  auto it = shard.files.find(id);
  return it == shard.files.end() ? nullptr : &it->second;
}

std::size_t FileIndex::file_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->file_count.load(std::memory_order_relaxed);
  }
  return static_cast<std::size_t>(total);
}

std::uint64_t FileIndex::source_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->source_count.load(std::memory_order_relaxed);
  }
  return total;
}

bool FileIndex::matches(const proto::SearchExpr& expr,
                        const FileRecord& record) {
  using Kind = proto::SearchExpr::Kind;
  switch (expr.kind) {
    case Kind::kBool: {
      bool l = expr.left != nullptr && matches(*expr.left, record);
      bool r = expr.right != nullptr && matches(*expr.right, record);
      switch (expr.op) {
        case proto::BoolOp::kAnd:
          return l && r;
        case proto::BoolOp::kOr:
          return l || r;
        case proto::BoolOp::kAndNot:
          return l && !r;
      }
      return false;
    }
    case Kind::kKeyword:
      return has_keyword(record.name, expr.text);
    case Kind::kMetaString: {
      if (expr.tag_name.size() == 1 &&
          static_cast<std::uint8_t>(expr.tag_name[0]) ==
              static_cast<std::uint8_t>(proto::TagName::kFileType)) {
        return equals_ignore_case(record.type, expr.text);
      }
      return false;  // other string metadata are not indexed
    }
    case Kind::kMetaNumeric: {
      if (expr.tag_name.size() == 1 &&
          static_cast<std::uint8_t>(expr.tag_name[0]) ==
              static_cast<std::uint8_t>(proto::TagName::kFileSize)) {
        return expr.cmp == proto::NumCmp::kMin ? record.size >= expr.number
                                               : record.size <= expr.number;
      }
      if (expr.tag_name.size() == 1 &&
          static_cast<std::uint8_t>(expr.tag_name[0]) ==
              static_cast<std::uint8_t>(proto::TagName::kAvailability)) {
        return expr.cmp == proto::NumCmp::kMin
                   ? record.availability() >= expr.number
                   : record.availability() <= expr.number;
      }
      return false;
    }
  }
  return false;
}

std::vector<std::uint64_t> FileIndex::counts_locked(
    const Shard& shard, const std::vector<std::string>& words) {
  std::vector<std::uint64_t> counts(words.size(), 0);
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    auto it = shard.keywords.find(words[wi]);
    if (it != shard.keywords.end()) counts[wi] = it->second.size();
  }
  return counts;
}

std::vector<FileIndex::Posting> FileIndex::shard_partial_locked(
    const Shard& shard, const proto::SearchExpr& expr,
    const std::string& chosen, std::size_t limit,
    std::uint64_t* evaluated) const {
  std::vector<Posting> out;
  if (limit == 0) return out;
  if (chosen.empty()) {
    // Pure metadata query: scan this shard's files in canonical order.
    for (const auto& [seq, id] : shard.by_seq) {
      auto fit = shard.files.find(id);
      if (fit == shard.files.end()) continue;
      ++*evaluated;
      if (matches(expr, fit->second)) {
        out.push_back(Posting{seq, id});
        if (out.size() >= limit) break;
      }
    }
    return out;
  }
  auto it = shard.keywords.find(chosen);
  if (it == shard.keywords.end()) return out;
  for (const Posting& p : it->second) {
    auto fit = shard.files.find(p.id);
    if (fit == shard.files.end()) continue;
    ++*evaluated;
    if (matches(expr, fit->second)) {
      out.push_back(p);
      if (out.size() >= limit) break;
    }
  }
  return out;
}

std::vector<FileId> FileIndex::search(const proto::SearchExpr& expr,
                                      std::size_t limit) const {
  obs::inc(metrics_.searches);

  // Like the old single-map index (and real servers), use the posting list
  // of the *rarest* keyword as the candidate list and filter candidates by
  // full expression evaluation; rarity is now judged on the summed posting
  // length across shards, which equals the old global posting length.
  std::vector<std::string> words;
  expr.collect_keywords(words);
  for (std::string& w : words) w = to_lower(w);

  const std::size_t n = shards_.size();
  const bool use_cache = cache_capacity_ > 0;
  std::uint64_t evaluated = 0;

  std::string key;
  if (use_cache) {
    ByteWriter w;
    proto::encode_search_expr(w, expr);
    w.u64le(static_cast<std::uint64_t>(limit));
    key.assign(reinterpret_cast<const char*>(w.bytes().data()),
               w.bytes().size());
  }

  // Snapshot any cached entry under the cache lock; shard work happens
  // outside it so concurrent searches for other keys don't serialize.
  bool have_entry = false;
  CacheEntry snap;
  if (use_cache) {
    std::lock_guard lk(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      have_entry = true;
      snap.chosen = it->second.chosen;
      snap.gens = it->second.gens;
      snap.word_counts = it->second.word_counts;
      snap.partials = it->second.partials;
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru);
    }
  }

  // Reuse whatever the entry holds for shards whose generation is
  // unchanged; everything else is recomputed below.
  std::vector<std::uint64_t> gens(n, 0);
  std::vector<std::vector<std::uint64_t>> counts(n);
  std::vector<std::vector<Posting>> partials(n);
  std::vector<bool> clean(n, false);
  if (have_entry) {
    for (std::size_t i = 0; i < n; ++i) {
      if (shards_[i]->generation.load(std::memory_order_relaxed) ==
          snap.gens[i]) {
        clean[i] = true;
        gens[i] = snap.gens[i];
        counts[i] = snap.word_counts[i];
        partials[i] = std::move(snap.partials[i]);
      }
    }
  }

  // Refresh posting-list counts for dirty shards and re-derive the rarest
  // keyword; the choice must track index churn or answers would drift from
  // the reference semantics.
  if (!words.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (clean[i]) continue;
      auto lock = lock_shared(*shards_[i]);
      gens[i] = shards_[i]->generation.load(std::memory_order_relaxed);
      counts[i] = counts_locked(*shards_[i], words);
    }
  }

  std::string chosen;  // empty = full metadata scan
  bool found_keyword = words.empty();
  if (!words.empty()) {
    std::uint64_t best_total = 0;
    for (std::size_t wi = 0; wi < words.size(); ++wi) {
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < n; ++i) total += counts[i][wi];
      if (total == 0) continue;  // keyword indexed nowhere
      if (!found_keyword || total < best_total) {  // first strict min wins
        found_keyword = true;
        best_total = total;
        chosen = words[wi];
      }
    }
  }

  if (!found_keyword) {
    // No query keyword is indexed at all: the answer is empty without
    // scanning anything.  Drop any stale entry rather than caching the
    // empty answer — the keyword may get published at any moment.
    if (use_cache) {
      std::lock_guard lk(cache_mutex_);
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        cache_lru_.erase(it->second.lru);
        cache_.erase(it);
      }
      ++cache_stats_.misses;
      obs::inc(metrics_.cache_misses);
    }
    obs::observe(metrics_.candidates, 0.0);
    return {};
  }

  // A changed rarest keyword invalidates every cached partial (they were
  // scanned off a different posting list).
  const bool chosen_matches = have_entry && chosen == snap.chosen;
  std::size_t recomputed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (chosen_matches && clean[i]) continue;
    auto lock = lock_shared(*shards_[i]);
    gens[i] = shards_[i]->generation.load(std::memory_order_relaxed);
    if (!words.empty()) counts[i] = counts_locked(*shards_[i], words);
    partials[i] =
        shard_partial_locked(*shards_[i], expr, chosen, limit, &evaluated);
    ++recomputed;
  }
  obs::observe(metrics_.candidates, static_cast<double>(evaluated));

  // Merge per-shard partials back into the canonical global order.  Each
  // partial holds that shard's first `limit` matches seq-ascending, so the
  // first `limit` of the merged stream are exactly the old single-map
  // answer.
  std::vector<Posting> merged;
  for (std::size_t i = 0; i < n; ++i) {
    merged.insert(merged.end(), partials[i].begin(), partials[i].end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const Posting& a, const Posting& b) { return a.seq < b.seq; });
  if (merged.size() > limit) merged.resize(limit);

  if (use_cache) {
    std::lock_guard lk(cache_mutex_);
    auto [it, inserted] = cache_.try_emplace(key);
    CacheEntry& entry = it->second;
    if (inserted) {
      cache_lru_.push_front(key);
      entry.lru = cache_lru_.begin();
    } else {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, entry.lru);
    }
    entry.chosen = chosen;
    entry.gens = std::move(gens);
    entry.word_counts = std::move(counts);
    entry.partials = std::move(partials);
    while (cache_.size() > cache_capacity_) {
      cache_.erase(cache_lru_.back());
      cache_lru_.pop_back();
      ++cache_stats_.evictions;
      obs::inc(metrics_.cache_evictions);
    }
    if (!have_entry || !chosen_matches) {
      ++cache_stats_.misses;
      obs::inc(metrics_.cache_misses);
    } else if (recomputed == 0) {
      ++cache_stats_.hits;
      obs::inc(metrics_.cache_hits);
    } else {
      ++cache_stats_.partial_hits;
      obs::inc(metrics_.cache_partial_hits);
    }
  }

  std::vector<FileId> out;
  out.reserve(merged.size());
  for (const Posting& p : merged) out.push_back(p.id);
  return out;
}

void FileIndex::save_state(ByteWriter& out) const {
  out.u64le(shards_.size());
  out.u64le(next_seq_.load(std::memory_order_relaxed));
  {
    std::lock_guard lk(cache_mutex_);
    out.u64le(cache_stats_.hits);
    out.u64le(cache_stats_.partial_hits);
    out.u64le(cache_stats_.misses);
    out.u64le(cache_stats_.evictions);
  }

  // Records in global first-publish order: the canonical answer order, and
  // the order restore_state replays so per-shard posting lists come back
  // seq-ascending without re-sorting.
  struct Item {
    std::uint64_t seq = 0;
    const FileId* id = nullptr;
    const FileRecord* rec = nullptr;
  };
  std::vector<Item> items;
  for (const auto& shard : shards_) {
    for (const auto& [seq, id] : shard->by_seq) {
      auto it = shard->files.find(id);
      if (it == shard->files.end()) continue;
      items.push_back(Item{seq, &it->first, &it->second});
    }
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.seq < b.seq; });

  out.u64le(items.size());
  for (const Item& item : items) {
    out.u64le(item.seq);
    out.raw(BytesView(item.id->bytes.data(), item.id->bytes.size()));
    out.u32le(static_cast<std::uint32_t>(item.rec->name.size()));
    out.raw(BytesView(
        reinterpret_cast<const std::uint8_t*>(item.rec->name.data()),
        item.rec->name.size()));
    out.u32le(item.rec->size);
    out.u32le(static_cast<std::uint32_t>(item.rec->type.size()));
    out.raw(BytesView(
        reinterpret_cast<const std::uint8_t*>(item.rec->type.data()),
        item.rec->type.size()));
    out.u32le(static_cast<std::uint32_t>(item.rec->sources.size()));
    for (const Source& src : item.rec->sources) {
      out.u32le(src.client);
      out.u16le(src.port);
    }
  }
}

bool FileIndex::restore_state(ByteReader& in) {
  if (in.u64le() != shards_.size()) return false;
  const std::uint64_t next_seq = in.u64le();
  CacheStats cs;
  cs.hits = in.u64le();
  cs.partial_hits = in.u64le();
  cs.misses = in.u64le();
  cs.evictions = in.u64le();
  const std::uint64_t count = in.u64le();
  if (count > in.remaining() / 40) return false;

  for (auto& shard : shards_) {
    shard->files.clear();
    shard->keywords.clear();
    shard->by_client.clear();
    shard->by_seq.clear();
    shard->generation.store(0, std::memory_order_relaxed);
    shard->file_count.store(0, std::memory_order_relaxed);
    shard->source_count.store(0, std::memory_order_relaxed);
  }
  {
    std::lock_guard lk(cache_mutex_);
    cache_.clear();
    cache_lru_.clear();
    cache_stats_ = cs;
  }

  std::uint64_t prev_seq = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seq = in.u64le();
    if (seq <= prev_seq || seq >= next_seq) return false;
    prev_seq = seq;
    FileId id;
    BytesView id_bytes = in.raw(id.bytes.size());
    if (!in.ok()) return false;
    std::memcpy(id.bytes.data(), id_bytes.data(), id.bytes.size());

    FileRecord rec;
    rec.seq = seq;
    const std::uint32_t name_len = in.u32le();
    if (name_len > in.remaining()) return false;
    BytesView name = in.raw(name_len);
    rec.name.assign(reinterpret_cast<const char*>(name.data()), name.size());
    rec.size = in.u32le();
    const std::uint32_t type_len = in.u32le();
    if (type_len > in.remaining()) return false;
    BytesView type = in.raw(type_len);
    rec.type.assign(reinterpret_cast<const char*>(type.data()), type.size());
    const std::uint32_t n_sources = in.u32le();
    if (n_sources > in.remaining() / 6) return false;
    rec.sources.reserve(n_sources);
    for (std::uint32_t s = 0; s < n_sources; ++s) {
      Source src{in.u32le(), in.u16le()};
      auto dup = std::find_if(
          rec.sources.begin(), rec.sources.end(),
          [&](const Source& o) { return o.client == src.client; });
      if (dup != rec.sources.end()) return false;
      rec.sources.push_back(src);
    }
    if (!in.ok()) return false;

    Shard& shard = shard_for(id);
    const std::string record_name = rec.name;
    const std::vector<Source> record_sources = rec.sources;
    if (!shard.files.emplace(id, std::move(rec)).second) return false;
    for (const std::string& kw : tokenize_keywords(record_name)) {
      shard.keywords[kw].push_back(Posting{seq, id});
    }
    shard.by_seq.emplace(seq, id);
    shard.file_count.fetch_add(1, std::memory_order_relaxed);
    for (const Source& src : record_sources) {
      shard.by_client[src.client].push_back(id);
      shard.source_count.fetch_add(1, std::memory_order_relaxed);
    }
  }
  next_seq_.store(next_seq, std::memory_order_relaxed);
  update_all_gauges();
  return in.ok();
}

FileIndex::CacheStats FileIndex::cache_stats() const {
  std::lock_guard lk(cache_mutex_);
  return cache_stats_;
}

void FileIndex::update_size_gauges(std::size_t shard) const {
  if (shard < metrics_.shard_files.size()) {
    obs::set(metrics_.shard_files[shard],
             static_cast<std::int64_t>(
                 shards_[shard]->file_count.load(std::memory_order_relaxed)));
  }
  obs::set(metrics_.files, static_cast<std::int64_t>(file_count()));
  obs::set(metrics_.sources, static_cast<std::int64_t>(source_count()));
}

void FileIndex::update_all_gauges() const {
  for (std::size_t i = 0; i < shards_.size(); ++i) update_size_gauges(i);
}

void FileIndex::bind_metrics(obs::Registry& registry) {
  metrics_.publishes = &registry.counter("server.index.publishes");
  metrics_.searches = &registry.counter("server.index.searches");
  metrics_.retracts = &registry.counter("server.index.retracts");
  metrics_.cache_hits = &registry.counter("server.index.cache.hits");
  metrics_.cache_partial_hits =
      &registry.counter("server.index.cache.partial_hits");
  metrics_.cache_misses = &registry.counter("server.index.cache.misses");
  metrics_.cache_evictions = &registry.counter("server.index.cache.evictions");
  metrics_.files = &registry.gauge("server.index.files");
  metrics_.sources = &registry.gauge("server.index.sources");
  metrics_.candidates = &registry.histogram("server.index.search.candidates",
                                            obs::size_buckets());
  // span.-prefixed so the wall-clock-dependent waits stay out of the
  // deterministic time series (TimeSeriesOptions excludes span.*).
  metrics_.lock_wait = &registry.histogram(
      "span.server.index.lock_wait.seconds", obs::lock_wait_buckets_s());
  registry.gauge("server.index.shards")
      .set(static_cast<std::int64_t>(shards_.size()));
  metrics_.shard_files.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    metrics_.shard_files.push_back(&registry.gauge(
        "server.index.shard." + std::to_string(i) + ".files"));
  }
  update_all_gauges();
}

}  // namespace dtr::server
