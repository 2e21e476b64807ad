// ReferencePipeline: the capture -> decode -> anonymise path of paper
// Figure 1 on the calling thread, the differential oracle for
// ParallelCapturePipeline.  One FrameDecoder, an Anonymiser over the §2.4
// baselines (HashClientTable, HashFileIdStore), CampaignStats and a
// DatasetWriter; push() runs each frame to completion before it returns.
// No settling, routing, batching, optimistic pass, merge or writer
// hand-off: whatever those add, the pipeline must still produce this
// object's bytes and counters.  The hash baselines assign the same
// order-of-appearance IDs as the paper's tables the pipeline runs, but
// share no code with them, so a table bug cannot hide in both.
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
  anon::Anonymiser anonymiser_;
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
