#include "server/index.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/strings.hpp"
#include "obs/profiler.hpp"

namespace dtr::server {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Evaluate `expr` against `record`, answering each keyword leaf with
/// `keyword(leaf)`.  Every leaf is visited, left to right: the order of
/// SearchExpr::collect_keywords().
template <typename KeywordTest>
bool evaluate(const proto::SearchExpr& expr, const FileRecord& record,
              KeywordTest& keyword) {
  using Kind = proto::SearchExpr::Kind;
  switch (expr.kind) {
    case Kind::kBool: {
      bool l = expr.left != nullptr && evaluate(*expr.left, record, keyword);
      bool r = expr.right != nullptr && evaluate(*expr.right, record, keyword);
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
      return keyword(expr);
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

}  // namespace

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
  FileRecord& record = it->second.record;
  if (is_new_file) {
    record.seq = seq;
    if (auto name = proto::tag_string(entry.tags, proto::TagName::kFileName))
      record.name = *name;
    if (auto size = proto::tag_u32(entry.tags, proto::TagName::kFileSize))
      record.size = *size;
    if (auto type = proto::tag_string(entry.tags, proto::TagName::kFileType))
      record.type = *type;
    index_file_locked(shard, *it);
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
  Shard& shard = shards_[si];
  bool is_new = false;
  {
    auto lock = lock_unique(shard);
    is_new = publish_locked(shard, entry, seq);
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

  std::array<std::vector<std::size_t>, kShards> by_shard;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    by_shard[shard_index(entries[i].file_id)].push_back(i);
  }

  std::size_t new_pairs = 0;
  for (std::size_t si = 0; si < kShards; ++si) {
    if (by_shard[si].empty()) continue;
    Shard& shard = shards_[si];
    {
      auto lock = lock_unique(shard);
      for (std::size_t idx : by_shard[si]) {
        if (publish_locked(shard, entries[idx], base + idx)) {
          ++new_pairs;
          if (new_pair != nullptr) (*new_pair)[idx] = true;
        }
      }
    }
    update_size_gauges(si);
  }
  return new_pairs;
}

void FileIndex::PostingList::insert(std::uint64_t seq, const FileNode* file) {
  ++live;
  // Serial histories and restore append; concurrent publishers may
  // interleave, and the list stays seq-ascending.
  if (postings.empty() || postings.back().seq <= seq) {
    postings.push_back(Posting{seq, file});
    return;
  }
  auto pos = std::upper_bound(
      postings.begin(), postings.end(), seq,
      [](std::uint64_t s, const Posting& p) { return s < p.seq; });
  postings.insert(pos, Posting{seq, file});
}

void FileIndex::PostingList::erase(std::uint64_t seq) {
  const auto by_seq = [](const Posting& a, const Posting& b) {
    return a.seq < b.seq;
  };
  const auto [first, last] = std::equal_range(
      postings.begin(), postings.end(), Posting{seq, nullptr}, by_seq);
  for (auto it = first; it != last; ++it) {
    if (it->file != nullptr) {
      it->file = nullptr;
      --live;
    }
  }
  if (postings.size() - live > live) {
    std::erase_if(postings, [](const Posting& p) { return p.file == nullptr; });
  }
}

void FileIndex::index_file_locked(Shard& shard, FileNode& file) {
  Entry& entry = file.second;
  const std::uint64_t seq = entry.record.seq;
  std::vector<std::string> tokens = tokenize_keywords(entry.record.name);
  entry.keywords.reserve(tokens.size());
  for (std::string& kw : tokens) {
    auto& node = *shard.keywords.try_emplace(std::move(kw)).first;
    node.second.insert(seq, &file);
    if (std::find(entry.keywords.begin(), entry.keywords.end(), &node) ==
        entry.keywords.end()) {
      entry.keywords.push_back(&node);
    }
  }
  shard.by_seq.insert(seq, &file);
}

void FileIndex::unindex_file_locked(Shard& shard, const Entry& entry) {
  const std::uint64_t seq = entry.record.seq;
  for (const Keyword kw : entry.keywords) {
    kw->second.erase(seq);
    if (kw->second.live == 0) {
      shard.keywords.erase(shard.keywords.find(kw->first));
    }
  }
  shard.by_seq.erase(seq);
}

void FileIndex::retract_client(proto::ClientId client) {
  obs::inc(metrics_.retracts);
  for (std::size_t si = 0; si < kShards; ++si) {
    Shard& shard = shards_[si];
    {
      auto lock = lock_unique(shard);
      auto it = shard.by_client.find(client);
      if (it == shard.by_client.end()) continue;
      for (const FileId& id : it->second) {
        auto fit = shard.files.find(id);
        if (fit == shard.files.end()) continue;
        auto& sources = fit->second.record.sources;
        auto src = std::find_if(
            sources.begin(), sources.end(),
            [&](const Source& s) { return s.client == client; });
        if (src != sources.end()) {
          sources.erase(src);
          shard.source_count.fetch_sub(1, std::memory_order_relaxed);
        }
        if (sources.empty()) {
          unindex_file_locked(shard, fit->second);
          shard.files.erase(fit);
          shard.file_count.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      shard.by_client.erase(it);
    }
    update_size_gauges(si);
  }
}

const FileRecord* FileIndex::find(const FileId& id) const {
  const Shard& shard = shard_for(id);
  auto it = shard.files.find(id);
  return it == shard.files.end() ? nullptr : &it->second.record;
}

std::size_t FileIndex::file_count() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.file_count.load(std::memory_order_relaxed);
  }
  return static_cast<std::size_t>(total);
}

std::uint64_t FileIndex::source_count() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.source_count.load(std::memory_order_relaxed);
  }
  return total;
}

bool FileIndex::matches(const proto::SearchExpr& expr,
                        const FileRecord& record) {
  auto scan_name = [&](const proto::SearchExpr& leaf) {
    return has_keyword(record.name, leaf.text);
  };
  return evaluate(expr, record, scan_name);
}

void FileIndex::shard_partial_locked(const Shard& shard,
                                     const proto::SearchExpr& expr,
                                     const std::vector<std::string>& words,
                                     const std::string& chosen,
                                     std::size_t limit, std::vector<Hit>& out,
                                     std::uint64_t& evaluated) {
  if (limit == 0) return;
  // Each keyword leaf as this shard interned it (null: no file here has
  // it); a candidate has the leaf's keyword iff its entry lists the node.
  std::vector<const KeywordMap::value_type*> leaves(words.size(), nullptr);
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    auto it = shard.keywords.find(words[wi]);
    if (it != shard.keywords.end()) leaves[wi] = &*it;
  }
  std::size_t found = 0;
  const auto test = [&](const Posting& p) {
    if (p.file == nullptr) return false;  // a tombstone is no candidate
    ++evaluated;
    const Entry& entry = p.file->second;
    std::size_t leaf = 0;
    auto indexed_under = [&](const proto::SearchExpr&) {
      const auto* want = leaves[leaf++];
      return want != nullptr &&
             std::find(entry.keywords.begin(), entry.keywords.end(), want) !=
                 entry.keywords.end();
    };
    if (!evaluate(expr, entry.record, indexed_under)) return false;
    out.push_back(Hit{p.seq, p.file->first});
    return ++found >= limit;
  };
  // A pure metadata query scans this shard's files in canonical order.
  const PostingList* list = &shard.by_seq;
  if (!chosen.empty()) {
    auto it = shard.keywords.find(chosen);
    if (it == shard.keywords.end()) return;
    list = &it->second;
  }
  for (const Posting& p : list->postings) {
    if (test(p)) break;
  }
}

std::vector<FileId> FileIndex::search(const proto::SearchExpr& expr,
                                      std::size_t limit) const {
  obs::inc(metrics_.searches);

  // Like a single-map index (and real servers), use the posting list of
  // the *rarest* keyword as the candidate list and filter candidates by
  // full expression evaluation.  Rarity is judged on the posting length
  // summed across shards, which equals the single-map posting length.
  std::vector<std::string> words;
  expr.collect_keywords(words);
  for (std::string& w : words) w = to_lower(w);

  // 1. Count each query word's postings.
  std::vector<std::uint64_t> totals(words.size(), 0);
  if (!words.empty()) {
    for (const Shard& shard : shards_) {
      auto lock = lock_shared(shard);
      for (std::size_t wi = 0; wi < words.size(); ++wi) {
        auto it = shard.keywords.find(words[wi]);
        if (it != shard.keywords.end()) totals[wi] += it->second.live;
      }
    }
  }

  // 2. Choose the rarest indexed keyword (the first strict minimum);
  // a keyword-less query scans the metadata of every file.
  std::string chosen;
  bool found_keyword = words.empty();
  std::uint64_t best_total = 0;
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    if (totals[wi] == 0) continue;  // keyword indexed nowhere
    if (!found_keyword || totals[wi] < best_total) {
      found_keyword = true;
      best_total = totals[wi];
      chosen = words[wi];
    }
  }
  if (!found_keyword) {
    // No query keyword is indexed at all: the answer is empty without
    // scanning anything.
    obs::observe(metrics_.candidates, 0.0);
    return {};
  }

  // 3. Each shard's first `limit` matches, seq-ascending.
  std::uint64_t evaluated = 0;
  std::vector<Hit> merged;
  for (const Shard& shard : shards_) {
    auto lock = lock_shared(shard);
    shard_partial_locked(shard, expr, words, chosen, limit, merged,
                         evaluated);
  }
  obs::observe(metrics_.candidates, static_cast<double>(evaluated));

  // 4. Merge the partials back into the canonical global order: the first
  // `limit` of the merged stream are exactly the single-map answer.
  std::sort(merged.begin(), merged.end(),
            [](const Hit& a, const Hit& b) { return a.seq < b.seq; });
  if (merged.size() > limit) merged.resize(limit);

  std::vector<FileId> out;
  out.reserve(merged.size());
  for (const Hit& h : merged) out.push_back(h.id);
  return out;
}

void FileIndex::save_state(ByteWriter& out) const {
  out.u64le(next_seq_.load(std::memory_order_relaxed));

  // Records in global first-publish order: the canonical answer order, and
  // the order restore_state replays so per-shard posting lists come back
  // seq-ascending without re-sorting.
  std::vector<Posting> items;
  for (const Shard& shard : shards_) {
    for (const Posting& p : shard.by_seq.postings) {
      if (p.file != nullptr) items.push_back(p);
    }
  }
  std::sort(items.begin(), items.end(),
            [](const Posting& a, const Posting& b) { return a.seq < b.seq; });

  out.u64le(items.size());
  for (const Posting& item : items) {
    const FileId& id = item.file->first;
    const FileRecord& rec = item.file->second.record;
    out.u64le(item.seq);
    out.raw(BytesView(id.bytes.data(), id.bytes.size()));
    out.u32le(static_cast<std::uint32_t>(rec.name.size()));
    out.raw(BytesView(reinterpret_cast<const std::uint8_t*>(rec.name.data()),
                      rec.name.size()));
    out.u32le(rec.size);
    out.u32le(static_cast<std::uint32_t>(rec.type.size()));
    out.raw(BytesView(reinterpret_cast<const std::uint8_t*>(rec.type.data()),
                      rec.type.size()));
    out.u32le(static_cast<std::uint32_t>(rec.sources.size()));
    for (const Source& src : rec.sources) {
      out.u32le(src.client);
      out.u16le(src.port);
    }
  }
}

bool FileIndex::restore_state(ByteReader& in) {
  const std::uint64_t next_seq = in.u64le();
  const std::uint64_t count = in.u64le();
  if (count > in.remaining() / 40) return false;

  for (Shard& shard : shards_) {
    shard.files.clear();
    shard.keywords.clear();
    shard.by_client.clear();
    shard.by_seq = {};
    shard.file_count.store(0, std::memory_order_relaxed);
    shard.source_count.store(0, std::memory_order_relaxed);
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
    auto [it, inserted] = shard.files.try_emplace(id);
    if (!inserted) return false;
    it->second.record = std::move(rec);
    index_file_locked(shard, *it);
    shard.file_count.fetch_add(1, std::memory_order_relaxed);
    for (const Source& src : it->second.record.sources) {
      shard.by_client[src.client].push_back(id);
      shard.source_count.fetch_add(1, std::memory_order_relaxed);
    }
  }
  next_seq_.store(next_seq, std::memory_order_relaxed);
  update_all_gauges();
  return in.ok();
}

void FileIndex::update_size_gauges(std::size_t shard) const {
  obs::set(metrics_.shard_files[shard],
           static_cast<std::int64_t>(
               shards_[shard].file_count.load(std::memory_order_relaxed)));
  obs::set(metrics_.files, static_cast<std::int64_t>(file_count()));
  obs::set(metrics_.sources, static_cast<std::int64_t>(source_count()));
}

void FileIndex::update_all_gauges() const {
  for (std::size_t i = 0; i < kShards; ++i) update_size_gauges(i);
}

void FileIndex::bind_metrics(obs::Registry& registry) {
  metrics_.publishes = &registry.counter("server.index.publishes");
  metrics_.searches = &registry.counter("server.index.searches");
  metrics_.retracts = &registry.counter("server.index.retracts");
  metrics_.files = &registry.gauge("server.index.files");
  metrics_.sources = &registry.gauge("server.index.sources");
  metrics_.candidates = &registry.histogram("server.index.search.candidates",
                                            obs::size_buckets());
  // Lock waits are wall-clock valued.
  metrics_.lock_wait = &registry.histogram(
      "span.server.index.lock_wait.seconds", obs::lock_wait_buckets_s(),
      obs::Determinism::kOperational);
  for (std::size_t i = 0; i < kShards; ++i) {
    metrics_.shard_files[i] = &registry.gauge(
        "server.index.shard." + std::to_string(i) + ".files");
  }
  update_all_gauges();
}

}  // namespace dtr::server
