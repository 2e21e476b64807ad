#include "analysis/campaign_stats.hpp"

namespace dtr::analysis {

void CampaignStats::observe_file_meta(anon::AnonFileId file,
                                      const anon::AnonFileMeta& meta) {
  const std::uint32_t kb = meta.size_kb.value_or(0);
  if (seen_files_.try_emplace(file, kb).second && kb > 0) sizes_.add(kb);
}

void CampaignStats::consume(const anon::AnonEvent& event) {
  ++messages_;
  obs::inc(metrics_.messages);
  if (event.is_query) {
    ++queries_;
    obs::inc(metrics_.queries);
  }
  distinct_clients_.observe(event.peer);

  struct Visitor {
    CampaignStats& s;
    const anon::AnonEvent& ev;

    void operator()(const anon::AServStatReq&) {}
    void operator()(const anon::AServStatRes&) {}
    void operator()(const anon::AServerDescReq&) {}
    void operator()(const anon::AServerDescRes&) {}
    void operator()(const anon::AGetServerList&) {}
    void operator()(const anon::AServerList&) {}

    void operator()(const anon::AFileSearchReq&) {
      // Keyword searches do not bind a client to a fileID; only source
      // requests do (the paper's Figs 5/7 are about files *asked for*,
      // which at the protocol level are getsources fileIDs).
    }
    void operator()(const anon::AFileSearchRes& m) {
      for (const auto& f : m.results) {
        s.distinct_clients_.observe(f.provider);
        s.provides_.observe(f.file, f.provider);
        s.observe_file_meta(f.file, f.meta);
      }
    }
    void operator()(const anon::AGetSourcesReq& m) {
      for (auto file : m.files) {
        s.asks_.observe(file, ev.peer);
        s.seen_files_.try_emplace(file, 0);
      }
    }
    void operator()(const anon::AFoundSourcesRes& m) {
      for (const auto& src : m.sources) {
        s.distinct_clients_.observe(src.client);
        s.provides_.observe(m.file, src.client);
      }
    }
    void operator()(const anon::APublishReq& m) {
      for (const auto& f : m.files) {
        s.distinct_clients_.observe(f.provider);
        s.provides_.observe(f.file, f.provider);
        s.observe_file_meta(f.file, f.meta);
      }
    }
    void operator()(const anon::APublishAck&) {}
  };

  std::visit(Visitor{*this, event}, event.message);

  // pairs()/distinct() are O(1) accessors, so refreshing the gauges on
  // every message is cheap and keeps snapshots exact at any point in time.
  obs::set(metrics_.provider_relations,
           static_cast<std::int64_t>(provides_.pairs()));
  obs::set(metrics_.asker_relations, static_cast<std::int64_t>(asks_.pairs()));
  obs::set(metrics_.clients_distinct,
           static_cast<std::int64_t>(distinct_clients_.distinct()));
  obs::set(metrics_.files_distinct,
           static_cast<std::int64_t>(seen_files_.size()));
}

void CampaignStats::save_state(ByteWriter& out) const {
  out.u64le(messages_);
  out.u64le(queries_);
  distinct_clients_.save_state(out);
  provides_.save_state(out);
  asks_.save_state(out);
  out.u64le(seen_files_.size());
  seen_files_.for_each([&](anon::AnonFileId file, std::uint32_t kb) {
    out.u64le(file);
    out.u32le(kb);
  });
  const auto& bins = sizes_.bins();
  out.u64le(bins.size());
  for (const auto& [value, count] : bins) {
    out.u64le(value);
    out.u64le(count);
  }
}

bool CampaignStats::restore_state(ByteReader& in) {
  messages_ = in.u64le();
  queries_ = in.u64le();
  if (queries_ > messages_) return false;
  if (!distinct_clients_.restore_state(in)) return false;
  if (!provides_.restore_state(in)) return false;
  if (!asks_.restore_state(in)) return false;
  seen_files_.clear();
  const std::uint64_t files = in.u64le();
  if (files > in.remaining() / 12) return false;
  seen_files_.reserve(files);
  for (std::uint64_t i = 0; i < files; ++i) {
    const std::uint64_t file = in.u64le();
    const std::uint32_t kb = in.u32le();
    if (!seen_files_.try_emplace(file, kb).second) return false;
  }
  sizes_ = CountHistogram{};
  const std::uint64_t bins = in.u64le();
  if (bins > in.remaining() / 16) return false;
  std::uint64_t last_value = 0;
  for (std::uint64_t i = 0; i < bins; ++i) {
    const std::uint64_t value = in.u64le();
    const std::uint64_t count = in.u64le();
    if (i > 0 && value <= last_value) return false;  // bins are sorted
    last_value = value;
    sizes_.add(value, count);
  }
  return in.ok();
}

void CampaignStats::bind_metrics(obs::Registry& registry) {
  metrics_.messages = &registry.counter("analysis.messages");
  metrics_.queries = &registry.counter("analysis.queries");
  metrics_.provider_relations = &registry.gauge("analysis.relations.provider");
  metrics_.asker_relations = &registry.gauge("analysis.relations.asker");
  metrics_.clients_distinct = &registry.gauge("analysis.clients.distinct");
  metrics_.files_distinct = &registry.gauge("analysis.files.distinct");
}

}  // namespace dtr::analysis
