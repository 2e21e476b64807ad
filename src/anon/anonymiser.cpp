#include "anon/anonymiser.hpp"

#include "hash/md5.hpp"

namespace dtr::anon {

std::size_t AnonSearchExpr::node_count() const {
  std::size_t n = 1;
  if (left) n += left->node_count();
  if (right) n += right->node_count();
  return n;
}

void AnonSearchExpr::collect_tokens(std::vector<StringToken>& out) const {
  if (token) out.push_back(*token);
  if (left) left->collect_tokens(out);
  if (right) right->collect_tokens(out);
}

StringToken anon_hash_string(std::string_view s) { return Md5::digest(s); }

AnonFileMeta anon_meta(const proto::TagList& tags) {
  AnonFileMeta meta;
  if (auto name = proto::tag_string(tags, proto::TagName::kFileName)) {
    meta.name = anon_hash_string(*name);
  }
  if (auto size = proto::tag_u32(tags, proto::TagName::kFileSize)) {
    // Bytes -> kilobytes, rounding up so no nonempty file becomes 0 KB.
    meta.size_kb = (*size + 1023) / 1024;
  }
  if (auto type = proto::tag_string(tags, proto::TagName::kFileType)) {
    meta.type = anon_hash_string(*type);
  }
  if (auto avail = proto::tag_u32(tags, proto::TagName::kAvailability)) {
    meta.availability = *avail;
  }
  return meta;
}

AnonSearchExprPtr anon_expr(const proto::SearchExpr& e) {
  auto out = std::make_unique<AnonSearchExpr>();
  out->kind = e.kind;
  switch (e.kind) {
    case proto::SearchExpr::Kind::kBool:
      out->op = e.op;
      if (e.left) out->left = anon_expr(*e.left);
      if (e.right) out->right = anon_expr(*e.right);
      break;
    case proto::SearchExpr::Kind::kKeyword:
      out->token = anon_hash_string(e.text);
      break;
    case proto::SearchExpr::Kind::kMetaString:
      out->token = anon_hash_string(e.text);
      out->tag_token = anon_hash_string(e.tag_name);
      break;
    case proto::SearchExpr::Kind::kMetaNumeric: {
      out->tag_token = anon_hash_string(e.tag_name);
      bool is_size =
          e.tag_name.size() == 1 &&
          static_cast<std::uint8_t>(e.tag_name[0]) ==
              static_cast<std::uint8_t>(proto::TagName::kFileSize);
      out->number = is_size ? (e.number + 1023) / 1024 : e.number;
      out->cmp = e.cmp;
      break;
    }
  }
  return out;
}

namespace {

// Assigns hole slots in resolve()'s visit order, which is the order a serial
// inserting pass assigns first sightings in.
struct HoleFiller {
  ClientAnonymiser& clients;
  FileIdAnonymiser& files;
  AnonMessage& out;

  void client(AnonClientId& slot, proto::ClientId id) {
    if (slot == kClientNotSeen) slot = clients.anonymise(id);
  }
  void file(AnonFileId& slot, const FileId& id) {
    if (slot == kFileNotSeen) slot = files.anonymise(id);
  }
  void entries(std::vector<AnonFileEntry>& slots,
               const std::vector<proto::FileEntry>& in) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      file(slots[i].file, in[i].file_id);
      client(slots[i].provider, in[i].client_id);
    }
  }

  void operator()(const proto::FileSearchRes& m) {
    entries(std::get<AFileSearchRes>(out).results, m.results);
  }
  void operator()(const proto::GetSourcesReq& m) {
    auto& slots = std::get<AGetSourcesReq>(out).files;
    for (std::size_t i = 0; i < m.file_ids.size(); ++i) {
      file(slots[i], m.file_ids[i]);
    }
  }
  void operator()(const proto::FoundSourcesRes& m) {
    auto& res = std::get<AFoundSourcesRes>(out);
    file(res.file, m.file_id);
    for (std::size_t i = 0; i < m.sources.size(); ++i) {
      client(res.sources[i].client, m.sources[i].ip);
    }
  }
  void operator()(const proto::PublishReq& m) {
    entries(std::get<APublishReq>(out).files, m.files);
  }
  // Every other message carries no table-assigned ID.
  template <typename M>
  void operator()(const M&) {}
};

}  // namespace

StringToken Anonymiser::hash_string(std::string_view s) {
  return anon_hash_string(s);
}

AnonEvent Anonymiser::anonymise(SimTime time, proto::ClientId peer_ip,
                                const proto::Message& msg) {
  ReadOnlyAnonymiser::Tally tally;
  AnonEvent ev = reader_.resolve(time, peer_ip, msg, tally);
  fill(ev, peer_ip, msg, tally);
  return ev;
}

void Anonymiser::fill(AnonEvent& event, proto::ClientId peer_ip,
                      const proto::Message& msg,
                      const ReadOnlyAnonymiser::Tally& tally) {
  if (tally.holes != 0) {
    HoleFiller filler{clients_, files_, event.message};
    filler.client(event.peer, peer_ip);
    std::visit(filler, msg);
    // Only a filled hole can move the populations.
    obs::set(metrics_.clients_distinct,
             static_cast<std::int64_t>(clients_.distinct()));
    obs::set(metrics_.files_distinct,
             static_cast<std::int64_t>(files_.distinct()));
    if (log_ != nullptr && log_->enabled(obs::LogLevel::kDebug)) {
      log_milestones(event.time);
    }
  }
  obs::inc(metrics_.events);
  obs::inc(metrics_.client_lookups, tally.client_lookups);
  obs::inc(metrics_.file_lookups, tally.file_lookups);
}

void Anonymiser::log_milestones(SimTime time) {
  while (clients_.distinct() >= next_client_milestone_) {
    DTR_LOG_DEBUG(log_, "anon", time,
                  "distinct clients reached " << next_client_milestone_);
    next_client_milestone_ *= 2;
  }
  while (files_.distinct() >= next_file_milestone_) {
    DTR_LOG_DEBUG(log_, "anon", time,
                  "distinct files reached " << next_file_milestone_);
    next_file_milestone_ *= 2;
  }
}

void Anonymiser::bind_metrics(obs::Registry& registry) {
  metrics_.events = &registry.counter("anon.events");
  metrics_.client_lookups = &registry.counter("anon.client_lookups");
  metrics_.file_lookups = &registry.counter("anon.file_lookups");
  metrics_.clients_distinct = &registry.gauge("anon.clients.distinct");
  metrics_.files_distinct = &registry.gauge("anon.files.distinct");
}

AnonEvent ReadOnlyAnonymiser::resolve(SimTime time, proto::ClientId peer_ip,
                                      const proto::Message& msg,
                                      Tally& tally) const {
  // Counts every lookup — holes included — exactly as often as a serial
  // inserting pass would, so committing the tally keeps
  // anon.client_lookups / anon.file_lookups equal to a one-thread run's.
  struct Resolver {
    const ClientAnonymiser& clients;
    const FileIdAnonymiser& files;
    Tally& tally;

    AnonClientId client(proto::ClientId id) {
      ++tally.client_lookups;
      const AnonClientId v = clients.lookup(id);
      if (v == kClientNotSeen) ++tally.holes;
      return v;
    }
    AnonFileId file(const FileId& id) {
      ++tally.file_lookups;
      const AnonFileId v = files.lookup(id);
      if (v == kFileNotSeen) ++tally.holes;
      return v;
    }
    AnonFileEntry entry(const proto::FileEntry& e) {
      AnonFileEntry out;
      out.file = file(e.file_id);
      out.provider = client(e.client_id);
      out.port = e.port;
      out.meta = anon_meta(e.tags);
      return out;
    }
  };
  struct Visitor {
    Resolver& r;

    AnonMessage operator()(const proto::ServStatReq&) { return AServStatReq{}; }
    AnonMessage operator()(const proto::ServStatRes& m) {
      return AServStatRes{m.users, m.files};
    }
    AnonMessage operator()(const proto::ServerDescReq&) {
      return AServerDescReq{};
    }
    AnonMessage operator()(const proto::ServerDescRes& m) {
      return AServerDescRes{anon_hash_string(m.name),
                            anon_hash_string(m.description)};
    }
    AnonMessage operator()(const proto::GetServerList&) {
      return AGetServerList{};
    }
    AnonMessage operator()(const proto::ServerList& m) {
      // Other servers' addresses are third-party identities: keep only the
      // count, redact the endpoints entirely.
      return AServerList{static_cast<std::uint32_t>(m.servers.size())};
    }
    AnonMessage operator()(const proto::FileSearchReq& m) {
      AFileSearchReq out;
      out.expr = anon_expr(*m.expr);
      return out;
    }
    AnonMessage operator()(const proto::FileSearchRes& m) {
      AFileSearchRes out;
      out.results.reserve(m.results.size());
      for (const auto& e : m.results) out.results.push_back(r.entry(e));
      return out;
    }
    AnonMessage operator()(const proto::GetSourcesReq& m) {
      AGetSourcesReq out;
      out.files.reserve(m.file_ids.size());
      for (const auto& id : m.file_ids) out.files.push_back(r.file(id));
      return out;
    }
    AnonMessage operator()(const proto::FoundSourcesRes& m) {
      AFoundSourcesRes out;
      out.file = r.file(m.file_id);
      out.sources.reserve(m.sources.size());
      for (const auto& s : m.sources) {
        out.sources.push_back(AnonEndpoint{r.client(s.ip), s.port});
      }
      return out;
    }
    AnonMessage operator()(const proto::PublishReq& m) {
      APublishReq out;
      out.files.reserve(m.files.size());
      for (const auto& e : m.files) out.files.push_back(r.entry(e));
      return out;
    }
    AnonMessage operator()(const proto::PublishAck& m) {
      return APublishAck{m.accepted};
    }
  };

  Resolver resolver{clients_, files_, tally};
  AnonEvent ev;
  ev.time = time;  // already relative to capture start by construction
  ev.peer = resolver.client(peer_ip);
  ev.is_query = proto::is_query(msg);
  ev.message = std::visit(Visitor{resolver}, msg);
  return ev;
}

std::optional<AnonEvent> ReadOnlyAnonymiser::try_anonymise(
    SimTime time, proto::ClientId peer_ip, const proto::Message& msg,
    Tally& tally) const {
  const std::uint64_t holes = tally.holes;
  AnonEvent ev = resolve(time, peer_ip, msg, tally);
  if (tally.holes != holes) return std::nullopt;
  return ev;
}

}  // namespace dtr::anon
