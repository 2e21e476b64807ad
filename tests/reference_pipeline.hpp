// ReferencePipeline: the capture -> decode -> anonymise path of paper
// Figure 1 on the calling thread, the differential oracle for
// ParallelCapturePipeline.  One FrameDecoder, a ReferenceAnonymiser over
// the §2.4 baselines (HashClientTable, HashFileIdStore), CampaignStats and
// a DatasetWriter; push() runs each frame to completion before it returns.
// No settling, routing, batching, worker resolve pass, hole filling, merge
// or writer hand-off: whatever those add, the pipeline must still produce
// this object's bytes and counters.  The hash baselines assign the same
// order-of-appearance IDs as the paper's tables the pipeline runs, and
// ReferenceAnonymiser assigns them in one inserting pass, so neither a
// table bug nor a fill-order bug can hide in both.
//
// It binds the same decode.*, anon.*, analysis.*, pipeline.frames and
// pipeline.messages instruments the pipeline does, and observes one
// span.decode.seconds per frame and one span.anonymise.seconds per
// message, so a reconciliation test can hold the pipeline's registry to
// this one counter by counter.
#pragma once

#include <memory>
#include <ostream>
#include <vector>

#include "analysis/campaign_stats.hpp"
#include "anon/anonymiser.hpp"
#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"
#include "core/pipeline.hpp"
#include "decode/decoder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/frames.hpp"
#include "xmlio/schema.hpp"

namespace dtr::core {

/// The §2.4 scheme as a single inserting pass in the serial visit order:
/// the peer, then each file entry's file before its provider, a sources
/// answer's file before its clients.  Shares only the table-free helpers
/// (string hashing, size reduction) with anon::Anonymiser, whose resolve +
/// fill split this is the oracle for.  Records anon.events, the lookup
/// counters and the distinct gauges on every event.
class ReferenceAnonymiser {
 public:
  ReferenceAnonymiser(anon::ClientAnonymiser& clients,
                      anon::FileIdAnonymiser& files)
      : clients_(clients), files_(files) {}

  void bind_metrics(obs::Registry& registry) {
    events_ = &registry.counter("anon.events");
    client_lookups_ = &registry.counter("anon.client_lookups");
    file_lookups_ = &registry.counter("anon.file_lookups");
    clients_distinct_ = &registry.gauge("anon.clients.distinct");
    files_distinct_ = &registry.gauge("anon.files.distinct");
  }

  anon::AnonEvent anonymise(SimTime time, proto::ClientId peer_ip,
                            const proto::Message& msg) {
    anon::AnonEvent ev;
    ev.time = time;
    ev.peer = client(peer_ip);
    ev.is_query = proto::is_query(msg);
    ev.message = std::visit([&](const auto& m) { return body(m); }, msg);
    obs::inc(events_);
    obs::set(clients_distinct_, static_cast<std::int64_t>(distinct_clients()));
    obs::set(files_distinct_, static_cast<std::int64_t>(distinct_files()));
    return ev;
  }

  [[nodiscard]] std::uint64_t distinct_clients() const {
    return clients_.distinct();
  }
  [[nodiscard]] std::uint64_t distinct_files() const {
    return files_.distinct();
  }

 private:
  anon::AnonClientId client(proto::ClientId id) {
    obs::inc(client_lookups_);
    return clients_.anonymise(id);
  }
  anon::AnonFileId file(const FileId& id) {
    obs::inc(file_lookups_);
    return files_.anonymise(id);
  }
  anon::AnonFileEntry entry(const proto::FileEntry& e) {
    anon::AnonFileEntry out;
    out.file = file(e.file_id);
    out.provider = client(e.client_id);
    out.port = e.port;
    out.meta = anon::anon_meta(e.tags);
    return out;
  }

  anon::AnonMessage body(const proto::ServStatReq&) {
    return anon::AServStatReq{};
  }
  anon::AnonMessage body(const proto::ServStatRes& m) {
    return anon::AServStatRes{m.users, m.files};
  }
  anon::AnonMessage body(const proto::ServerDescReq&) {
    return anon::AServerDescReq{};
  }
  anon::AnonMessage body(const proto::ServerDescRes& m) {
    return anon::AServerDescRes{anon::anon_hash_string(m.name),
                                anon::anon_hash_string(m.description)};
  }
  anon::AnonMessage body(const proto::GetServerList&) {
    return anon::AGetServerList{};
  }
  anon::AnonMessage body(const proto::ServerList& m) {
    return anon::AServerList{static_cast<std::uint32_t>(m.servers.size())};
  }
  anon::AnonMessage body(const proto::FileSearchReq& m) {
    anon::AFileSearchReq out;
    out.expr = anon::anon_expr(*m.expr);
    return out;
  }
  anon::AnonMessage body(const proto::FileSearchRes& m) {
    anon::AFileSearchRes out;
    for (const auto& e : m.results) out.results.push_back(entry(e));
    return out;
  }
  anon::AnonMessage body(const proto::GetSourcesReq& m) {
    anon::AGetSourcesReq out;
    for (const auto& id : m.file_ids) out.files.push_back(file(id));
    return out;
  }
  anon::AnonMessage body(const proto::FoundSourcesRes& m) {
    anon::AFoundSourcesRes out;
    out.file = file(m.file_id);
    for (const auto& s : m.sources) {
      out.sources.push_back(anon::AnonEndpoint{client(s.ip), s.port});
    }
    return out;
  }
  anon::AnonMessage body(const proto::PublishReq& m) {
    anon::APublishReq out;
    for (const auto& e : m.files) out.files.push_back(entry(e));
    return out;
  }
  anon::AnonMessage body(const proto::PublishAck& m) {
    return anon::APublishAck{m.accepted};
  }

  anon::ClientAnonymiser& clients_;
  anon::FileIdAnonymiser& files_;
  obs::Counter* events_ = nullptr;
  obs::Counter* client_lookups_ = nullptr;
  obs::Counter* file_lookups_ = nullptr;
  obs::Gauge* clients_distinct_ = nullptr;
  obs::Gauge* files_distinct_ = nullptr;
};

class ReferencePipeline {
 public:
  /// `xml_out` (the dataset) and `metrics` may be null; both must outlive
  /// the pipeline.
  ReferencePipeline(std::uint32_t server_ip, std::uint16_t server_port,
                    std::ostream* xml_out = nullptr,
                    obs::Registry* metrics = nullptr)
      : server_ip_(server_ip),
        server_port_(server_port),
        decoder_(server_ip, server_port, decode::MessageSink{}),
        anonymiser_(clients_, files_) {
    if (xml_out != nullptr) {
      xml_ = std::make_unique<xmlio::DatasetWriter>(*xml_out);
    }
    if (metrics != nullptr) {
      frames_ = &metrics->counter("pipeline.frames");
      messages_ = &metrics->counter("pipeline.messages");
      constexpr auto kOps = obs::Determinism::kOperational;
      decode_span_ = &metrics->histogram("span.decode.seconds",
                                         obs::latency_buckets_s(), kOps);
      anonymise_span_ = &metrics->histogram("span.anonymise.seconds",
                                            obs::latency_buckets_s(), kOps);
      decoder_.bind_metrics(*metrics);
      anonymiser_.bind_metrics(*metrics);
      stats_.bind_metrics(*metrics);
    }
  }

  void push(const sim::TimedFrame& frame) {
    obs::inc(frames_);
    last_time_ = frame.time;
    {
      obs::SpanTimer span(decode_span_);
      decoder_.decode_into(frame, decoded_);
    }
    for (const decode::DecodedMessage& msg : decoded_) {
      obs::SpanTimer span(anonymise_span_);
      obs::inc(messages_);
      // The dialog's client side: whoever is not the server.
      const bool from_client =
          msg.dst_ip == server_ip_ && msg.dst_port == server_port_;
      const anon::AnonEvent event = anonymiser_.anonymise(
          msg.time, from_client ? msg.src_ip : msg.dst_ip, msg.message);
      ++events_;
      stats_.consume(event);
      if (xml_) xml_->write(event);
    }
    decoded_.clear();
  }

  /// Expire reassembly against the last frame's time and close the
  /// dataset.  Call once.
  PipelineResult finish() {
    decoder_.finish(last_time_);
    if (xml_) xml_->finish();
    PipelineResult result;
    result.decode = decoder_.stats();
    result.distinct_clients = anonymiser_.distinct_clients();
    result.distinct_files = anonymiser_.distinct_files();
    result.anonymised_events = events_;
    result.xml_events = xml_ ? xml_->events_written() : 0;
    return result;
  }

  [[nodiscard]] const analysis::CampaignStats& stats() const { return stats_; }

 private:
  std::uint32_t server_ip_;
  std::uint16_t server_port_;
  decode::FrameDecoder decoder_;
  anon::HashClientTable clients_;
  anon::HashFileIdStore files_;
  ReferenceAnonymiser anonymiser_;
  analysis::CampaignStats stats_;
  std::unique_ptr<xmlio::DatasetWriter> xml_;
  std::vector<decode::DecodedMessage> decoded_;  // one frame's messages
  SimTime last_time_ = 0;
  std::uint64_t events_ = 0;
  obs::Counter* frames_ = nullptr;
  obs::Counter* messages_ = nullptr;
  obs::Histogram* decode_span_ = nullptr;
  obs::Histogram* anonymise_span_ = nullptr;
};

}  // namespace dtr::core
