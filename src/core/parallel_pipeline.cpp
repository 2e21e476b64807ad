#include "core/parallel_pipeline.hpp"

#include <algorithm>
#include <deque>

#include "common/rng.hpp"
#include "xmlio/schema.hpp"

namespace dtr::core {

namespace {

/// Sum per-worker decode statistics into campaign totals.
void accumulate(decode::DecodeStats& total, const decode::DecodeStats& part) {
  total.frames += part.frames;
  total.non_ipv4_frames += part.non_ipv4_frames;
  total.bad_ip_packets += part.bad_ip_packets;
  total.tcp_packets += part.tcp_packets;
  total.other_ip_packets += part.other_ip_packets;
  total.udp_packets += part.udp_packets;
  total.udp_fragments += part.udp_fragments;
  total.udp_malformed += part.udp_malformed;
  total.edonkey_messages += part.edonkey_messages;
  total.decoded += part.decoded;
  total.undecoded_structural += part.undecoded_structural;
  total.undecoded_effective += part.undecoded_effective;
}

/// Free-list retention caps.  In-flight object counts are already bounded
/// by the ring capacities, so these are backstops, not working limits.
constexpr std::size_t kMaxRetainedBatches = 4096;

/// Frames per worker micro-batch: enough to amortise a ring hand-off, few
/// enough that a batch's frames stay in cache while the worker decodes.
constexpr std::size_t kBatchFrames = 16;

/// An open batch is flushed when the next frame for its worker arrives
/// more than this much simulated time after the batch's last frame, so a
/// quiet flow never waits on a half-full batch.
constexpr SimTime kBatchTimeGap = kSecond;

/// Bound of each worker's input and output ring, in batches (8192 frames).
constexpr std::size_t kRingBatches = 8192 / kBatchFrames;

/// Events per writer hand-off, and the writer ring's bound in chunks.
constexpr std::size_t kWriterChunkEvents = 256;
constexpr std::size_t kWriterRingChunks = 64;

}  // namespace

ParallelCapturePipeline::ParallelCapturePipeline(
    const ParallelPipelineConfig& config)
    : config_(config),
      frame_pool_(kMaxRetainedBatches),
      result_pool_(kMaxRetainedBatches),
      chunk_pool_(kWriterRingChunks + 8),
      feeder_decoder_(config.server_ip, config.server_port,
                      decode::MessageSink{}),
      anonymiser_(clients_, files_),
      read_anonymiser_(clients_, files_) {
  if (config_.xml_out != nullptr) {
    // The prologue is written here, on the constructing thread; the writer
    // thread only touches the stream after a chunk arrives, and thread
    // creation below orders these writes before it.
    xml_ = std::make_unique<xmlio::DatasetWriter>(*config_.xml_out);
    writer_ring_ = std::make_unique<SpscRing<EventChunk>>(kWriterRingChunks);
  }

  const std::size_t n = std::max<std::size_t>(1, config_.workers);
  workers_.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->index = w;
    worker->in = std::make_unique<SpscRing<FrameBatch>>(kRingBatches);
    worker->out = std::make_unique<SpscRing<ResultBatch>>(kRingBatches);
    worker->out->bind_consumer_signal(&merge_signal_);
    worker->decoder = std::make_unique<decode::FrameDecoder>(
        config_.server_ip, config_.server_port, decode::MessageSink{});
    workers_.push_back(std::move(worker));
  }
  // Bind before any thread starts: instrument pointers must be visible to
  // the workers without extra synchronisation.
  if (config_.metrics != nullptr) bind_metrics(*config_.metrics);
  frame_pool_.bind_metrics(metrics_.pool_hits, metrics_.pool_misses);
  result_pool_.bind_metrics(metrics_.pool_hits, metrics_.pool_misses);
  chunk_pool_.bind_metrics(metrics_.pool_hits, metrics_.pool_misses);
  for (auto& worker : workers_) {
    worker->in->bind_metrics(metrics_.push_parks, metrics_.worker_parks);
    worker->out->bind_metrics(metrics_.worker_parks, nullptr);
    worker->decoder->bind_telemetry(config_.log, config_.flight);
  }
  feeder_decoder_.bind_telemetry(config_.log, config_.flight);
  if (writer_ring_) {
    writer_ring_->bind_metrics(metrics_.merge_parks, metrics_.writer_parks);
  }
  anonymiser_.bind_telemetry(config_.log);
  DTR_LOG_INFO(config_.log, "pipeline", 0,
               "pipeline up (" << n << " workers, batch " << kBatchFrames
                               << " frames, queue " << kRingBatches
                               << " batches per worker)");
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
  }
  merge_thread_ = std::thread([this] { merge_loop(); });
  if (writer_ring_) {
    writer_thread_ = std::thread([this] { writer_loop(); });
  }
}

ParallelCapturePipeline::~ParallelCapturePipeline() {
  if (!finished_) finish();
}

std::size_t ParallelCapturePipeline::route(const sim::TimedFrame& frame) const {
  // Flow identity without a full decode: IPv4 id, src and dst sit at fixed
  // offsets behind the 14-byte ethernet header — options, if any, follow
  // them.  Only frames classify_frame() called UDP get here, so the
  // 20-byte IPv4 header is complete.
  const Bytes& b = frame.bytes;
  std::uint64_t key = 0;
  for (std::size_t i = 26; i < 34; ++i) key = key << 8 | b[i];  // src+dst
  key ^= static_cast<std::uint64_t>(b[18]) << 40 |
         static_cast<std::uint64_t>(b[19]) << 32;  // identification
  return static_cast<std::size_t>(mix64(key) % workers_.size());
}

void ParallelCapturePipeline::push(const sim::TimedFrame& frame) {
  if (config_.profiler != nullptr && feeder_lease_.get() == nullptr) {
    feeder_lease_ = obs::ThreadLease(config_.profiler, "capture", "feed");
  }
  obs::inc(metrics_.frames);
  last_time_ = frame.time;
  {
    // A settled (non-UDP) frame is fully counted here; its decode span is
    // the classification.  A UDP frame's span is timed by its worker.
    obs::SpanTimer span(metrics_.decode_span);
    if (feeder_decoder_.settle(frame)) return;
    span.cancel();
  }
  const std::size_t target = route(frame);
  Worker& worker = *workers_[target];
  // An idle gap in simulated time flushes the open batch: batch boundaries
  // must depend only on the input stream (count + time), never on wall
  // clock, or batch shapes — and their histograms — would go
  // nondeterministic.
  if (worker.open.used > 0 &&
      frame.time > worker.open_last_time + kBatchTimeGap) {
    flush_open_batch(target);
  }
  worker.open.add(next_seq_++, frame);
  worker.open_last_time = frame.time;
  if (worker.open.used >= kBatchFrames) flush_open_batch(target);
}

void ParallelCapturePipeline::flush_open_batch(std::size_t target) {
  Worker& worker = *workers_[target];
  if (worker.open.used == 0) return;
  if (config_.flight != nullptr &&
      worker.in->size() >= worker.in->capacity()) {
    // The routed worker is not keeping up: this hand-off is about to block.
    obs::record(config_.flight, obs::FlightEvent::kStageStall,
                worker.open_last_time, worker.in->size(), target);
  }
  const std::size_t frames = worker.open.used;
  obs::observe(metrics_.batch_frames, static_cast<double>(frames));
  if (!worker.in->push(std::move(worker.open))) note_dropped(frames, "frames");
  worker.open = frame_pool_.acquire();
  worker.open.reset();
}

void ParallelCapturePipeline::flush() {
  // next_seq_ is only written by the pushing thread — which is the only
  // thread allowed to call flush(), so reading it unsynchronised is fine.
  // Settled frames never enter the count: push() finished them.
  for (std::size_t w = 0; w < workers_.size(); ++w) flush_open_batch(w);
  const std::uint64_t frames = next_seq_;
  if (results_merged_.load(std::memory_order_acquire) < frames) {
    // The feeder is blocked on downstream progress: backpressure time.
    obs::ProfScope prof(obs::ThreadState::kQueueWait);
    std::unique_lock lock(quiesce_mutex_);
    quiesce_cv_.wait(lock, [&] {
      return results_merged_.load(std::memory_order_acquire) >= frames;
    });
  }
  if (writer_ring_) {
    // The merger has handed off its last open chunk (it flushes at every
    // drain-cycle end), so anonymised_events_ is final for this prefix;
    // now wait for the writer thread to retire it all.
    const std::uint64_t events =
        anonymised_events_.load(std::memory_order_acquire);
    if (writer_events_done_.load(std::memory_order_acquire) < events) {
      obs::ProfScope prof(obs::ThreadState::kQueueWait);
      std::unique_lock lock(quiesce_mutex_);
      quiesce_cv_.wait(lock, [&] {
        return writer_events_done_.load(std::memory_order_acquire) >= events;
      });
    }
  }
}

void ParallelCapturePipeline::notify_quiesce() {
  {
    std::lock_guard<std::mutex> lock(quiesce_mutex_);
  }
  quiesce_cv_.notify_all();
}

void ParallelCapturePipeline::note_dropped(std::size_t count,
                                           const char* what) {
  obs::inc(metrics_.dropped_on_close, count);
  if (!dropped_logged_.exchange(true)) {
    DTR_LOG_WARN(config_.log, "pipeline", 0,
                 "queue closed during shutdown: "
                     << count << ' ' << what
                     << " dropped (further drops counted, not logged)");
  }
}

void ParallelCapturePipeline::fail(const char* stage, SimTime time,
                                   const std::string& what) {
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (error_.empty()) error_ = std::string(stage) + ": " + what;
  }
  obs::record(config_.flight, obs::FlightEvent::kPipelineError, time);
  DTR_LOG_ERROR(config_.log, stage, time, "stage failed: " << what);
}

std::uint32_t ParallelCapturePipeline::peer_ip(
    const decode::DecodedMessage& msg) const {
  // The dialog's client side: whoever is not the server.
  const bool from_client = msg.dst_ip == config_.server_ip &&
                           msg.dst_port == config_.server_port;
  return from_client ? msg.src_ip : msg.dst_ip;
}

void ParallelCapturePipeline::resolve_pass(ResultBatch& result) {
  for (std::size_t i = 0; i < result.messages.size(); ++i) {
    const decode::DecodedMessage& msg = result.messages[i];
    obs::SpanTimer span(metrics_.anonymise_span);
    try {
      result.events[i] = read_anonymiser_.resolve(
          msg.time, peer_ip(msg), msg.message, result.tallies[i]);
    } catch (const std::exception&) {
      // The merger resolves this message and the rest of the batch itself;
      // its failure handling is authoritative.
      span.cancel();
      return;
    }
    result.resolved = i + 1;
  }
}

void ParallelCapturePipeline::worker_loop(Worker& worker) {
  obs::ThreadLease lease(config_.profiler, "worker",
                         "worker." + std::to_string(worker.index));
  bool& failed = worker.failed;
  while (auto batch = worker.in->pop()) {
    // A spent batch comes back un-reset: its decoded messages and events
    // are torn down here, on a worker, not on the merge thread.
    ResultBatch result = result_pool_.acquire();
    result.reset();
    for (std::size_t i = 0; i < batch->used; ++i) {
      SequencedFrame& sf = batch->slots[i];
      const std::size_t before = result.messages.size();
      if (!failed) {
        try {
          obs::SpanTimer span(metrics_.decode_span);
          worker.decoder->decode_into(sf.frame, result.messages);
        } catch (const std::exception& e) {
          failed = true;
          fail("decode", sf.frame.time, e.what());
          result.messages.resize(before);  // drop the half-decoded frame
        }
      }
      // One entry per frame even after a failure — the merger needs a
      // contiguous sequence to stay live (and flush() counts on it).
      result.seqs.push_back(sf.seq);
      result.counts.push_back(
          static_cast<std::uint32_t>(result.messages.size() - before));
    }
    batch->reset();
    frame_pool_.release(std::move(*batch));
    // Messages a failed worker leaves unresolved, the merger resolves.
    result.events.resize(result.messages.size());
    result.tallies.assign(result.messages.size(), {});
    if (!failed) resolve_pass(result);
    const std::size_t frames = result.seqs.size();
    obs::observe(metrics_.batch_messages,
                 static_cast<double>(result.messages.size()));
    if (!worker.out->push(std::move(result))) note_dropped(frames, "results");
  }
  // The merger exits once every worker's out ring is closed and drained.
  worker.out->close();
}

void ParallelCapturePipeline::merge_loop() {
  obs::ThreadLease lease(config_.profiler, "merge", "merge");
  // One FIFO lane of result batches per worker.  A worker's frames carry
  // ascending sequence numbers, batch after batch, so the frame the merger
  // needs next is always at the front of exactly one lane: restoring
  // order takes a scan of the lane fronts where a run ends, not a heap.
  std::vector<std::deque<PendingBatch>> lanes(workers_.size());
  std::vector<ResultBatch> backlog;
  std::uint64_t next_expected = 0;
  bool failed = false;
  EventChunk chunk;  // open writer hand-off chunk (only filled with xml_)

  auto hand_off_chunk = [&] {
    if (chunk.events.empty()) return;
    const std::uint64_t events = chunk.events.size();
    if (!writer_ring_->push(std::move(chunk))) {
      note_dropped(events, "events");
      // Keep the quiescence accounting alive even on this shutdown path.
      writer_events_done_.fetch_add(events, std::memory_order_release);
    }
    chunk = chunk_pool_.acquire();
  };

  // Publish progress (next_expected frames merged) for flush().  Once per
  // drain cycle, before notify_quiesce(), rather than once per frame.
  auto publish = [&] {
    results_merged_.store(next_expected, std::memory_order_release);
  };

  // The order-sensitive stage, one frame's messages at a time.  Workers
  // resolved every message already; the merger only fills the holes —
  // which is where dense IDs are assigned, in strict sequence order,
  // making the numbering independent of the worker count — and forwards
  // the finished event.
  auto process_frame = [&](PendingBatch& cur) {
    const std::uint32_t count = cur.batch.counts[cur.frame];
    if (!failed) {
      try {
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::size_t mi = cur.msg + i;
          const decode::DecodedMessage& msg = cur.batch.messages[mi];
          anon::AnonEvent& event = cur.batch.events[mi];
          obs::inc(metrics_.messages);
          if (mi < cur.batch.resolved) {
            const anon::ReadOnlyAnonymiser::Tally& tally =
                cur.batch.tallies[mi];
            obs::inc(tally.holes == 0 ? metrics_.fast_events
                                      : metrics_.deferred_events);
            anonymiser_.fill(event, peer_ip(msg), msg.message, tally);
          } else {
            // The worker failed before resolving this message.
            obs::SpanTimer span(metrics_.anonymise_span);
            obs::inc(metrics_.deferred_events);
            event = anonymiser_.anonymise(msg.time, peer_ip(msg), msg.message);
          }
          anonymised_events_.fetch_add(1, std::memory_order_relaxed);
          stats_.consume(event);
          if (config_.extra_sink) config_.extra_sink(event);
          if (xml_) {
            chunk.events.push_back(std::move(event));
            if (chunk.events.size() >= kWriterChunkEvents) hand_off_chunk();
          }
        }
      } catch (const std::exception& e) {
        failed = true;  // keep consuming results so flush() never hangs
        const SimTime when =
            count == 0 ? 0 : cur.batch.messages[cur.msg].time;
        fail("anonymise", when, e.what());
      }
    }
    cur.msg += count;
    ++cur.frame;
  };

  // Consume frames in sequence order until no lane holds the next one.
  // `idle` counts lanes visited since the last progress; once every lane
  // has been visited without the next frame, it has not arrived yet.
  auto drain_contiguous = [&] {
    std::size_t idle = 0;
    for (std::size_t w = 0; idle < lanes.size();
         w = w + 1 == lanes.size() ? 0 : w + 1) {
      std::deque<PendingBatch>& lane = lanes[w];
      ++idle;
      while (!lane.empty() && lane.front().front_seq() == next_expected) {
        idle = 1;  // this lane, now past next_expected, counts as visited
        PendingBatch& cur = lane.front();
        do {
          process_frame(cur);
          ++next_expected;
        } while (cur.frame < cur.batch.seqs.size() &&
                 cur.front_seq() == next_expected);
        // A gap inside this worker's stream: another worker owns the next
        // frame.  Leave the cursor at the front of the lane.
        if (cur.frame < cur.batch.seqs.size()) break;
        // Spent, but not reset: the worker that acquires it next frees its
        // messages and events.
        result_pool_.release(std::move(cur.batch));
        lane.pop_front();
      }
    }
  };

  auto update_shard_gauges = [&] {
    if (metrics_.shard_files_max == nullptr) return;
    std::int64_t fmax = 0;
    for (std::size_t s = 0; s < anon::BucketedFileIdStore::kShards; ++s) {
      fmax = std::max(fmax,
                      static_cast<std::int64_t>(files_.shard_distinct(s)));
    }
    obs::set(metrics_.shard_files_max, fmax);
    obs::set(metrics_.table_pages,
             static_cast<std::int64_t>(clients_.pages_allocated()));
    obs::set(metrics_.table_bytes,
             static_cast<std::int64_t>(clients_.memory_bytes()));
  };

  for (;;) {
    // Fan-in sleep protocol: announce intent, scan every worker ring, and
    // only park when nothing arrived AND something can still arrive.
    const RingSignal::Epoch seen = merge_signal_.prepare();
    std::size_t got = 0;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      got += workers_[w]->out->pop_all(backlog);
      for (ResultBatch& result : backlog) {
        lanes[w].push_back(PendingBatch{std::move(result)});
      }
      backlog.clear();
    }
    if (got == 0) {
      bool all_drained = true;
      for (auto& worker : workers_) all_drained &= worker->out->drained();
      if (all_drained) {
        merge_signal_.cancel();
        break;
      }
      obs::inc(metrics_.merge_parks);
      merge_signal_.wait(seen);
      continue;
    }
    merge_signal_.cancel();
    std::size_t depth = 0;
    for (auto& worker : workers_) depth += worker->out->size();
    obs::set(metrics_.merge_queue_depth, static_cast<std::int64_t>(depth));
    drain_contiguous();
    std::size_t pending = 0;
    for (const auto& lane : lanes) pending += lane.size();
    obs::set(metrics_.merge_pending, static_cast<std::int64_t>(pending));
    update_shard_gauges();
    // End of drain cycle: hand the open chunk to the writer — a checkpoint
    // quiesce must find the full anonymised prefix on its way to the XML
    // stream, never parked here — and wake any flush() waiter.
    hand_off_chunk();
    publish();
    notify_quiesce();
  }
  // All rings closed and drained: everything left is contiguous.
  drain_contiguous();
  obs::set(metrics_.merge_pending, 0);
  update_shard_gauges();
  hand_off_chunk();
  publish();
  notify_quiesce();
}

void ParallelCapturePipeline::writer_loop() {
  obs::ThreadLease lease(config_.profiler, "writer", "writer");
  bool failed = false;
  std::string rendered;  // one chunk's bytes, reused
  while (auto chunk = writer_ring_->pop()) {
    obs::set(metrics_.writer_queue_depth,
             static_cast<std::int64_t>(writer_ring_->size()));
    const std::uint64_t events = chunk->events.size();
    if (!failed) {
      try {
        obs::SpanTimer span(metrics_.write_span);
        rendered.clear();
        std::uint64_t elements = 0;
        for (const anon::AnonEvent& event : chunk->events) {
          elements += xmlio::render_event(event, rendered);
        }
        xml_->write_rendered(rendered, events, elements);
      } catch (const std::exception& e) {
        failed = true;  // keep retiring chunks so flush() never hangs
        fail("write", 0, e.what());
      }
    }
    obs::inc(metrics_.writer_chunks);
    obs::inc(metrics_.writer_events, events);
    writer_events_done_.fetch_add(events, std::memory_order_release);
    chunk->events.clear();
    chunk_pool_.release(std::move(*chunk));
    notify_quiesce();
  }
}

void ParallelCapturePipeline::save_state(ByteWriter& out) const {
  out.u64le(workers_.size());
  out.u64le(anonymised_events_.load(std::memory_order_acquire));
  out.u64le(xml_ ? xml_->events_written() : 0);
  out.u64le(xml_ ? xml_->xml_elements_written() : 0);
  clients_.save_state(out);
  files_.save_state(out);
  anonymiser_.save_state(out);
  stats_.save_state(out);
  out.u64le(last_time_);
  feeder_decoder_.save_state(out);
  for (const auto& worker : workers_) worker->decoder->save_state(out);
}

bool ParallelCapturePipeline::restore_state(ByteReader& in) {
  if (in.u64le() != workers_.size()) return false;
  anonymised_events_.store(in.u64le(), std::memory_order_release);
  const std::uint64_t xml_events = in.u64le();
  const std::uint64_t xml_elements = in.u64le();
  if (xml_) xml_->resume(xml_events, xml_elements);
  // The restored events are already on the stream (the owner re-seeded the
  // XML prefix), so the writer ledger starts even with the anonymise
  // ledger — flush() compares the two.
  writer_events_done_.store(anonymised_events_.load(std::memory_order_relaxed),
                            std::memory_order_release);
  if (!clients_.restore_state(in)) return false;
  if (!files_.restore_state(in)) return false;
  if (!anonymiser_.restore_state(in)) return false;
  if (!stats_.restore_state(in)) return false;
  last_time_ = in.u64le();
  if (!feeder_decoder_.restore_state(in)) return false;
  for (auto& worker : workers_) {
    if (!worker->decoder->restore_state(in)) return false;
  }
  return in.ok();
}

void ParallelCapturePipeline::bind_metrics(obs::Registry& registry) {
  // Pool recycling, writer chunk shapes, ring parks, queue depths and the
  // fast/deferred anonymisation split depend on thread scheduling; the
  // clientID table's footprint on its page layout; spans on wall time.
  constexpr auto kOps = obs::Determinism::kOperational;
  metrics_.frames = &registry.counter("pipeline.frames");
  metrics_.messages = &registry.counter("pipeline.messages");
  metrics_.dropped_on_close = &registry.counter("pipeline.dropped_on_close");
  metrics_.pool_hits = &registry.counter("pipeline.pool.hits", kOps);
  metrics_.pool_misses = &registry.counter("pipeline.pool.misses", kOps);
  metrics_.writer_chunks = &registry.counter("pipeline.writer.chunks", kOps);
  metrics_.writer_events = &registry.counter("pipeline.writer.events", kOps);
  metrics_.fast_events = &registry.counter("anon.shard.fast_events", kOps);
  metrics_.deferred_events =
      &registry.counter("anon.shard.deferred_events", kOps);
  metrics_.push_parks = &registry.counter("pipeline.ring.parks.push", kOps);
  metrics_.worker_parks =
      &registry.counter("pipeline.ring.parks.worker", kOps);
  metrics_.merge_parks = &registry.counter("pipeline.ring.parks.merge", kOps);
  metrics_.writer_parks =
      &registry.counter("pipeline.ring.parks.writer", kOps);
  metrics_.merge_queue_depth = &registry.gauge("pipeline.queue.merge", kOps);
  metrics_.merge_pending = &registry.gauge("pipeline.merge.pending", kOps);
  metrics_.writer_queue_depth = &registry.gauge("pipeline.queue.writer", kOps);
  metrics_.table_pages = &registry.gauge("anon.table.pages", kOps);
  metrics_.table_bytes = &registry.gauge("anon.table.bytes", kOps);
  metrics_.shard_files_max = &registry.gauge("anon.shard.files.max", kOps);
  metrics_.batch_frames =
      &registry.histogram("pipeline.batch.frames", obs::size_buckets());
  metrics_.batch_messages =
      &registry.histogram("pipeline.batch.messages", obs::size_buckets());
  metrics_.decode_span = &registry.histogram(
      "span.decode.seconds", obs::latency_buckets_s(), kOps);
  metrics_.anonymise_span = &registry.histogram(
      "span.anonymise.seconds", obs::latency_buckets_s(), kOps);
  metrics_.write_span = &registry.histogram(
      "span.write.seconds", obs::latency_buckets_s(), kOps);
  for (auto& worker : workers_) worker->decoder->bind_metrics(registry);
  feeder_decoder_.bind_metrics(registry);
  anonymiser_.bind_metrics(registry);
  stats_.bind_metrics(registry);
}

PipelineResult ParallelCapturePipeline::finish() {
  if (!finished_) {
    finished_ = true;
    for (std::size_t w = 0; w < workers_.size(); ++w) flush_open_batch(w);
    for (auto& worker : workers_) worker->in->close();
    for (auto& worker : workers_) worker->thread.join();
    // Flush reassembly timeouts against the last pushed frame's time, as
    // one decoder fed every frame would (a worker's own last frame may be
    // older).
    for (auto& worker : workers_) {
      if (!worker->failed) worker->decoder->finish(last_time_);
    }
    // Workers close their out rings on exit; the merger drains them all
    // and stops once every ring reports drained.
    merge_thread_.join();
    if (writer_ring_) {
      // The merger handed off its last chunk before exiting; close after
      // it so nothing is stranded.
      writer_ring_->close();
      writer_thread_.join();
    }
    feeder_lease_.reset();  // finish() runs on the pushing thread
    if (xml_) xml_->finish();
    accumulate(total_decode_, feeder_decoder_.stats());
    for (auto& worker : workers_) {
      accumulate(total_decode_, worker->decoder->stats());
    }
    DTR_LOG_INFO(config_.log, "pipeline", 0,
                 "pipeline drained (" << anonymised_events_.load()
                                      << " events anonymised)");
  }
  PipelineResult result;
  result.decode = total_decode_;
  result.distinct_clients = anonymiser_.distinct_clients();
  result.distinct_files = anonymiser_.distinct_files();
  result.anonymised_events = anonymised_events_.load();
  result.xml_events = xml_ ? xml_->events_written() : 0;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    result.error = error_;
  }
  return result;
}

}  // namespace dtr::core
