#include "server/server.hpp"

#include <algorithm>

namespace dtr::server {

EdonkeyServer::EdonkeyServer(ServerConfig config)
    : config_(std::move(config)) {
  // The wire count field is a u8; a larger configured cap would silently
  // truncate on encode, so clamp here and keep every layer consistent.
  config_.max_sources_per_answer =
      std::min<std::size_t>(config_.max_sources_per_answer, 255);
  next_low_id_ = config_.first_low_id % proto::kLowIdThreshold;
  if (next_low_id_ == 0) next_low_id_ = 1;
}

proto::ClientId EdonkeyServer::client_id_for(proto::ClientId client_ip,
                                             bool reachable) {
  if (reachable) return client_ip;
  std::lock_guard lock(client_mutex_);
  auto [it, inserted] = low_ids_.try_emplace(client_ip, next_low_id_);
  if (inserted) {
    next_low_id_ = (next_low_id_ + 1) % proto::kLowIdThreshold;
    if (next_low_id_ == 0) next_low_id_ = 1;
  }
  return it->second;
}

void EdonkeyServer::client_offline(proto::ClientId client_ip) {
  index_.retract_client(client_ip);
  std::lock_guard lock(client_mutex_);
  published_count_.erase(client_ip);
}

proto::Message EdonkeyServer::answer_stat(const proto::ServStatReq& q) {
  proto::ServStatRes res;
  res.challenge = q.challenge;
  res.users = user_count();
  res.files = static_cast<std::uint32_t>(index_.file_count());
  return res;
}

proto::Message EdonkeyServer::answer_desc() const {
  proto::ServerDescRes res;
  res.name = config_.name;
  res.description = config_.description;
  return res;
}

proto::Message EdonkeyServer::answer_server_list() const {
  proto::ServerList res;
  res.servers = config_.known_servers;
  if (res.servers.size() > 255) res.servers.resize(255);
  return res;
}

proto::Message EdonkeyServer::answer_search(const proto::FileSearchReq& q,
                                            SimTime now) {
  ++stats_.searches;
  proto::FileSearchRes res;
  std::vector<FileId> ids = index_.search(*q.expr, config_.max_search_results);
  if (ids.size() >= config_.max_search_results) {
    DTR_LOG_DEBUG(log_, "server", now,
                  "search answer capped at " << config_.max_search_results
                                             << " results");
  }
  res.results.reserve(ids.size());
  for (const FileId& id : ids) {
    // Copy the answer fields out under the shard lock: a concurrent
    // retract must not be able to pull the record out from under us.
    proto::FileEntry entry;
    bool usable = false;
    index_.visit(id, [&](const FileRecord& record) {
      if (record.sources.empty()) return;
      entry.file_id = id;
      // Real servers return one representative source per result entry.
      entry.client_id = record.sources.front().client;
      entry.port = record.sources.front().port;
      entry.tags.push_back(
          proto::Tag::str(proto::TagName::kFileName, record.name));
      entry.tags.push_back(
          proto::Tag::u32(proto::TagName::kFileSize, record.size));
      if (!record.type.empty()) {
        entry.tags.push_back(
            proto::Tag::str(proto::TagName::kFileType, record.type));
      }
      entry.tags.push_back(
          proto::Tag::u32(proto::TagName::kAvailability,
                          record.availability()));
      usable = true;
    });
    if (usable) res.results.push_back(std::move(entry));
  }
  return res;
}

std::vector<proto::Message> EdonkeyServer::answer_sources(
    const proto::GetSourcesReq& q, SimTime now) {
  ++stats_.source_requests;
  std::vector<proto::Message> answers;
  for (const FileId& id : q.file_ids) {
    proto::FoundSourcesRes res;
    res.file_id = id;
    std::size_t total = 0;
    index_.visit(id, [&](const FileRecord& record) {
      total = record.sources.size();
      std::size_t n = std::min(total, config_.max_sources_per_answer);
      res.sources.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        res.sources.push_back(
            {record.sources[i].client, record.sources[i].port});
      }
    });
    if (res.sources.empty()) {
      ++stats_.unanswerable;
      continue;  // real servers stay silent for unknown fileIDs
    }
    if (res.sources.size() < total) {
      DTR_LOG_DEBUG(log_, "server", now,
                    "source answer truncated to " << res.sources.size()
                                                  << " of " << total
                                                  << " known sources");
    }
    answers.emplace_back(std::move(res));
  }
  return answers;
}

proto::Message EdonkeyServer::accept_publish(proto::ClientId client,
                                             std::uint16_t client_port,
                                             const proto::PublishReq& q) {
  ++stats_.publishes;
  const std::size_t batch =
      std::min(q.files.size(), config_.max_files_per_publish);
  std::vector<proto::FileEntry> entries(q.files.begin(),
                                        q.files.begin() + batch);
  for (proto::FileEntry& entry : entries) {
    entry.client_id = client;  // the server trusts the transport address
    entry.port = client_port;
  }

  // Fast path: when the per-client cap cannot trigger within this
  // announce, publish the whole batch through the index's batched path —
  // one lock per touched shard instead of one per file.  (Concurrent
  // announces from one client may overshoot the cap by a batch; the cap
  // is an anti-abuse bound, not an exact quota.)
  bool fits = false;
  {
    std::lock_guard lock(client_mutex_);
    fits = published_count_[client] + batch <= config_.max_published_per_client;
  }

  std::uint32_t accepted = 0;
  std::uint64_t rejected = 0;
  if (fits) {
    const std::size_t new_pairs = index_.publish_batch(entries);
    accepted = static_cast<std::uint32_t>(batch);
    std::lock_guard lock(client_mutex_);
    published_count_[client] += new_pairs;
  } else {
    // Near the cap: fall back to per-entry publishing so the cutoff lands
    // on the same file as the pre-sharding server.
    for (std::size_t i = 0; i < batch; ++i) {
      bool at_cap = false;
      {
        std::lock_guard lock(client_mutex_);
        at_cap =
            published_count_[client] >= config_.max_published_per_client;
      }
      if (at_cap) {
        rejected += q.files.size() - i;
        break;
      }
      if (index_.publish(entries[i])) {
        std::lock_guard lock(client_mutex_);
        ++published_count_[client];
      }
      ++accepted;
    }
  }
  rejected += q.files.size() - batch;
  stats_.published_files_rejected += rejected;
  stats_.published_files_accepted += accepted;
  return proto::PublishAck{accepted};
}

std::vector<proto::Message> EdonkeyServer::handle(proto::ClientId client_ip,
                                                  std::uint16_t client_port,
                                                  const proto::Message& query,
                                                  SimTime now) {
  ++stats_.queries;
  {
    std::lock_guard lock(client_mutex_);
    seen_clients_[client_ip] = now;
  }

  std::vector<proto::Message> answers;
  if (const auto* q = std::get_if<proto::ServStatReq>(&query)) {
    answers.push_back(answer_stat(*q));
  } else if (std::holds_alternative<proto::ServerDescReq>(query)) {
    answers.push_back(answer_desc());
  } else if (std::holds_alternative<proto::GetServerList>(query)) {
    answers.push_back(answer_server_list());
  } else if (const auto* q = std::get_if<proto::FileSearchReq>(&query)) {
    answers.push_back(answer_search(*q, now));
  } else if (const auto* q = std::get_if<proto::GetSourcesReq>(&query)) {
    answers = answer_sources(*q, now);
  } else if (const auto* q = std::get_if<proto::PublishReq>(&query)) {
    answers.push_back(accept_publish(client_ip, client_port, *q));
  }
  // Answers to answers (a client echoing server messages) are ignored.

  stats_.answers += answers.size();
  return answers;
}

namespace {

/// Serialize an unordered client-keyed map sorted by key, so snapshot
/// bytes don't depend on hash-table iteration order.
template <typename V, typename Write>
void save_client_map(ByteWriter& out,
                     const std::unordered_map<proto::ClientId, V>& map,
                     Write&& write_value) {
  std::vector<proto::ClientId> keys;
  keys.reserve(map.size());
  for (const auto& [k, v] : map) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  out.u64le(keys.size());
  for (proto::ClientId k : keys) {
    out.u32le(k);
    write_value(map.find(k)->second);
  }
}

}  // namespace

void EdonkeyServer::save_state(ByteWriter& out) const {
  out.u64le(stats_.queries.load());
  out.u64le(stats_.answers.load());
  out.u64le(stats_.searches.load());
  out.u64le(stats_.source_requests.load());
  out.u64le(stats_.publishes.load());
  out.u64le(stats_.published_files_accepted.load());
  out.u64le(stats_.published_files_rejected.load());
  out.u64le(stats_.unanswerable.load());
  {
    std::lock_guard lock(client_mutex_);
    out.u32le(next_low_id_);
    save_client_map(out, low_ids_,
                    [&](proto::ClientId low) { out.u32le(low); });
    save_client_map(out, seen_clients_, [&](SimTime t) { out.u64le(t); });
    save_client_map(out, published_count_,
                    [&](std::uint64_t n) { out.u64le(n); });
  }
  index_.save_state(out);
}

bool EdonkeyServer::restore_state(ByteReader& in) {
  stats_.queries.store(in.u64le());
  stats_.answers.store(in.u64le());
  stats_.searches.store(in.u64le());
  stats_.source_requests.store(in.u64le());
  stats_.publishes.store(in.u64le());
  stats_.published_files_accepted.store(in.u64le());
  stats_.published_files_rejected.store(in.u64le());
  stats_.unanswerable.store(in.u64le());
  {
    std::lock_guard lock(client_mutex_);
    next_low_id_ = in.u32le();
    if (next_low_id_ == 0 || next_low_id_ >= proto::kLowIdThreshold) {
      return false;
    }
    low_ids_.clear();
    seen_clients_.clear();
    published_count_.clear();
    std::uint64_t n = in.u64le();
    if (n > in.remaining() / 8) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      const proto::ClientId ip = in.u32le();
      const proto::ClientId low = in.u32le();
      if (low == 0 || low >= proto::kLowIdThreshold) return false;
      if (!low_ids_.emplace(ip, low).second) return false;
    }
    n = in.u64le();
    if (n > in.remaining() / 12) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      const proto::ClientId ip = in.u32le();
      const SimTime t = in.u64le();
      if (!seen_clients_.emplace(ip, t).second) return false;
    }
    n = in.u64le();
    if (n > in.remaining() / 12) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      const proto::ClientId ip = in.u32le();
      const std::uint64_t published = in.u64le();
      if (!published_count_.emplace(ip, published).second) return false;
    }
  }
  return index_.restore_state(in) && in.ok();
}

}  // namespace dtr::server
