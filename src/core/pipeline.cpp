#include "core/pipeline.hpp"

#include <chrono>

#include "core/server_pool.hpp"

namespace dtr::core {

namespace {

/// Bound of each stage queue (frames, then decoded messages).
constexpr std::size_t kQueueCapacity = 65536;

}  // namespace

CapturePipeline::CapturePipeline(const PipelineConfig& config)
    : config_(config),
      frame_queue_(kQueueCapacity),
      message_queue_(kQueueCapacity),
      clients_(config.client_table_mode, config.client_table_space_bits),
      files_(config.fileid_index_byte_0, config.fileid_index_byte_1),
      anonymiser_(clients_, files_) {
  if (config_.xml_out != nullptr) {
    xml_ = std::make_unique<xmlio::DatasetWriter>(*config_.xml_out);
  }
  // The decode loop collects messages via decode_into() and hands them to
  // the message queue in per-drain batches; no per-message sink needed.
  decoder_ = std::make_unique<decode::FrameDecoder>(
      config_.server_ip, config_.server_port, decode::MessageSink{});
  // Bind before the worker threads exist so instrument pointers are
  // published by the thread constructors' synchronisation.
  if (config_.metrics != nullptr) bind_metrics(*config_.metrics);
  decoder_->bind_telemetry(config_.log, config_.flight);
  anonymiser_.bind_telemetry(config_.log);
  DTR_LOG_INFO(config_.log, "pipeline", 0,
               "serial pipeline up (frame and message queues of "
                   << kQueueCapacity << ")");
  decode_thread_ = std::thread([this] { decode_loop(); });
  anonymise_thread_ = std::thread([this] { anonymise_loop(); });
}

CapturePipeline::~CapturePipeline() {
  if (!finished_) finish();
}

void CapturePipeline::push(const sim::TimedFrame& frame) {
  if (config_.profiler != nullptr && feeder_lease_.get() == nullptr) {
    feeder_lease_ = obs::ThreadLease(config_.profiler, "capture", "feed");
  }
  obs::inc(metrics_.frames);
  if (config_.flight != nullptr &&
      frame_queue_.size() >= kQueueCapacity) {
    // The decode stage is not keeping up: this push is about to block.
    obs::record(config_.flight, obs::FlightEvent::kStageStall, frame.time,
                frame_queue_.size());
  }
  frames_pushed_.fetch_add(1, std::memory_order_relaxed);
  if (!frame_queue_.push(frame)) note_dropped(1, "frames");
  obs::set(metrics_.frame_queue_depth,
           static_cast<std::int64_t>(frame_queue_.size()));
}

void CapturePipeline::flush() {
  const std::uint64_t frames = frames_pushed_.load(std::memory_order_relaxed);
  if (frames_decoded_.load(std::memory_order_acquire) < frames) {
    // The feeder is blocked on downstream progress: backpressure time.
    obs::ProfScope prof(obs::ThreadState::kQueueWait);
    while (frames_decoded_.load(std::memory_order_acquire) < frames) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  // Only now is the message count for this prefix final.
  const std::uint64_t messages =
      messages_enqueued_.load(std::memory_order_acquire);
  if (messages_done_.load(std::memory_order_acquire) < messages) {
    obs::ProfScope prof(obs::ThreadState::kQueueWait);
    while (messages_done_.load(std::memory_order_acquire) < messages) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  if (config_.replay != nullptr) config_.replay->drain();
  update_table_gauges();
}

void CapturePipeline::update_table_gauges() {
  // Safe only while the anonymise thread is idle (quiesced or joined).
  obs::set(metrics_.table_pages,
           static_cast<std::int64_t>(clients_.pages_allocated()));
  obs::set(metrics_.table_bytes,
           static_cast<std::int64_t>(clients_.memory_bytes()));
}

void CapturePipeline::note_dropped(std::size_t count, const char* what) {
  obs::inc(metrics_.dropped_on_close, count);
  if (!dropped_logged_.exchange(true)) {
    DTR_LOG_WARN(config_.log, "pipeline", 0,
                 "queue closed during shutdown: "
                     << count << ' ' << what
                     << " dropped (further drops counted, not logged)");
  }
}

void CapturePipeline::fail(const char* stage, SimTime time,
                           const std::string& what) {
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (error_.empty()) error_ = std::string(stage) + ": " + what;
  }
  obs::record(config_.flight, obs::FlightEvent::kPipelineError, time);
  DTR_LOG_ERROR(config_.log, stage, time, "stage failed: " << what);
}

void CapturePipeline::decode_loop() {
  obs::ThreadLease lease(config_.profiler, "decode", "decode");
  bool failed = false;
  std::vector<sim::TimedFrame> frames;
  std::vector<decode::DecodedMessage> scratch;
  while (frame_queue_.pop_all(frames)) {
    obs::set(metrics_.frame_queue_depth,
             static_cast<std::int64_t>(frame_queue_.size()));
    for (const sim::TimedFrame& frame : frames) {
      if (!failed) {
        try {
          obs::SpanTimer span(metrics_.decode_span);
          decoder_->decode_into(frame, scratch);
          last_time_ = frame.time;
        } catch (const std::exception& e) {
          failed = true;  // keep draining so upstream push()/flush() never hang
          fail("decode", frame.time, e.what());
        }
      }
    }
    if (!scratch.empty()) {
      // Count before the hand-off and before the frame counter below:
      // flush() reads messages_enqueued_ only once frames_decoded_ has
      // caught up, so this order keeps its two-phase wait exact.
      const std::size_t produced = scratch.size();
      messages_enqueued_.fetch_add(produced, std::memory_order_release);
      if (message_queue_.push_all(scratch) != produced) {
        note_dropped(produced, "messages");
      }
    }
    frames_decoded_.fetch_add(frames.size(), std::memory_order_release);
    frames.clear();
  }
  if (!failed) decoder_->finish(last_time_);
  message_queue_.close();
}

void CapturePipeline::anonymise_loop() {
  obs::ThreadLease lease(config_.profiler, "anonymise", "anonymise");
  bool failed = false;
  std::vector<decode::DecodedMessage> batch;
  while (message_queue_.pop_all(batch)) {
    obs::set(metrics_.message_queue_depth,
             static_cast<std::int64_t>(message_queue_.size()));
    for (decode::DecodedMessage& msg : batch) {
      if (!failed) {
        try {
          obs::SpanTimer span(metrics_.anonymise_span);
          obs::inc(metrics_.messages);
          // The dialog's client side: whoever is not the server.
          const bool from_client = msg.dst_ip == config_.server_ip &&
                                   msg.dst_port == config_.server_port;
          const std::uint32_t peer_ip = from_client ? msg.src_ip : msg.dst_ip;

          anon::AnonEvent event =
              anonymiser_.anonymise(msg.time, peer_ip, msg.message);
          ++anonymised_events_;
          stats_.consume(event);
          if (config_.extra_sink) config_.extra_sink(event);
          if (xml_) xml_->write(event);
          if (config_.keep_events) events_.push_back(std::move(event));
          if (config_.replay != nullptr && from_client) {
            // The anonymised event is already extracted; the decoded message
            // itself is free to move into the shadow-serving pool.
            config_.replay->submit(ServerQuery{msg.src_ip, msg.src_port,
                                               std::move(msg.message),
                                               msg.time});
          }
        } catch (const std::exception& e) {
          failed = true;  // keep draining so flush() never hangs
          fail("anonymise", msg.time, e.what());
        }
      }
    }
    messages_done_.fetch_add(batch.size(), std::memory_order_release);
    batch.clear();
  }
}

void CapturePipeline::save_state(ByteWriter& out) const {
  out.u64le(last_time_);
  out.u64le(anonymised_events_);
  out.u64le(xml_ ? xml_->events_written() : 0);
  out.u64le(xml_ ? xml_->xml_elements_written() : 0);
  clients_.save_state(out);
  files_.save_state(out);
  anonymiser_.save_state(out);
  stats_.save_state(out);
  decoder_->save_state(out);
}

bool CapturePipeline::restore_state(ByteReader& in) {
  last_time_ = in.u64le();
  anonymised_events_ = in.u64le();
  const std::uint64_t xml_events = in.u64le();
  const std::uint64_t xml_elements = in.u64le();
  if (xml_) xml_->resume(xml_events, xml_elements);
  if (!clients_.restore_state(in)) return false;
  if (!files_.restore_state(in)) return false;
  if (!anonymiser_.restore_state(in)) return false;
  if (!stats_.restore_state(in)) return false;
  return decoder_->restore_state(in) && in.ok();
}

void CapturePipeline::bind_metrics(obs::Registry& registry) {
  metrics_.frames = &registry.counter("pipeline.frames");
  metrics_.messages = &registry.counter("pipeline.messages");
  metrics_.dropped_on_close = &registry.counter("pipeline.dropped_on_close");
  metrics_.frame_queue_depth = &registry.gauge("pipeline.queue.frames");
  metrics_.message_queue_depth = &registry.gauge("pipeline.queue.messages");
  metrics_.decode_span = &registry.histogram("span.decode.seconds");
  metrics_.anonymise_span = &registry.histogram("span.anonymise.seconds");
  // Resident footprint of the clientID table (paper §2.4): flat mode pins
  // the full pre-allocation here, paged mode grows with distinct clients.
  // Excluded from the time series — the values differ across page modes,
  // and snapshots resume across modes.
  metrics_.table_pages = &registry.gauge("anon.table.pages");
  metrics_.table_bytes = &registry.gauge("anon.table.bytes");
  decoder_->bind_metrics(registry);
  anonymiser_.bind_metrics(registry);
  stats_.bind_metrics(registry);
}

PipelineResult CapturePipeline::finish() {
  if (!finished_) {
    finished_ = true;
    frame_queue_.close();
    decode_thread_.join();
    anonymise_thread_.join();
    feeder_lease_.reset();  // finish() runs on the pushing thread
    if (config_.replay != nullptr) config_.replay->drain();
    update_table_gauges();
    if (xml_) xml_->finish();
    DTR_LOG_INFO(config_.log, "pipeline", last_time_,
                 "serial pipeline drained (" << anonymised_events_
                                             << " events anonymised)");
  }
  PipelineResult result;
  result.decode = decoder_->stats();
  result.distinct_clients = anonymiser_.distinct_clients();
  result.distinct_files = anonymiser_.distinct_files();
  result.anonymised_events = anonymised_events_;
  result.xml_events = xml_ ? xml_->events_written() : 0;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    result.error = error_;
  }
  return result;
}

}  // namespace dtr::core
