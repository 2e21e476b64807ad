// The capture pipeline (paper Figure 1: capture -> decode -> anonymise),
// order-preserving at any worker count.
//
// Decoding is independent per frame — except IP reassembly, which is
// stateful per (src, dst, id) — and anonymisation must see messages in
// capture order (order-of-appearance tokens).  The classic HPC recipe
// applies, to the UDP frames only:
//
//   * SETTLE: at the capture point ~95% of the frames are not eDonkey at
//     all (background TCP, §2.2).  The pushing thread classifies every
//     frame from its headers (net::classify_frame, via a feeder-owned
//     FrameDecoder's settle()) and counts each non-UDP frame straight into
//     that decoder's stats — the same counters a worker would have bumped.
//     Such a frame carries no message and no reassembly state, so it never
//     needs a sequence number, a batch slot, a worker or a merge step.
//   * PARTITION: UDP frames are routed to N workers by a hash of their IP
//     flow identity, so all fragments of one packet meet in the same
//     worker's private reassembler.  No shared mutable state between
//     workers.
//   * SEQUENCE: every routed frame carries a global sequence number; a
//     worker emits exactly one (seq, message count) entry per frame,
//     batched.
//   * MERGE: a single merger restores sequence order from one FIFO lane of
//     result batches per worker (a worker's sequence numbers ascend, so the
//     next frame is always at the front of some lane) and runs the
//     order-sensitive stage.  It publishes its progress once per drain
//     cycle, not once per frame.
//
// One worker is the default (`--workers 0` and `1` both mean it): the
// same data plane with a single lane, so the pushing thread still settles
// the background frames and hands UDP frames off in batches.
//
// The §2.4 pass is split three ways, so the merge thread — the one stage
// that must run in sequence order — does as little as possible:
//
//   * WORKERS RESOLVE: each worker runs the read-only pass
//     (anon::ReadOnlyAnonymiser::resolve) on every decoded message —
//     strings hashed, sizes reduced, every clientID and fileID looked up
//     without inserting against the §2.4 tables (anon/client_table.hpp,
//     anon/fileid_store.hpp), which allow one writer and many readers.  An
//     ID not assigned yet stays a *hole*: the kClientNotSeen /
//     kFileNotSeen sentinel in its slot.  The worker keeps the event and
//     the lookup tally a serial pass would have counted.
//   * THE MERGER FILLS HOLES: it stays the only table writer and processes
//     frames strictly in sequence order.  For each event it assigns the
//     holes with the inserting tables in the serial visit order
//     (anon::Anonymiser::fill), commits the tally, feeds CampaignStats and
//     forwards the event.  Any ID a worker resolved was assigned at an
//     earlier sequence number, and assignment order is merge-side only, so
//     every event carries exactly the IDs a serial run gives it.  A worker
//     failure leaves the rest of its batch unresolved, and the merger
//     resolves and fills those messages itself.
//   * THE WRITER RENDERS every event, in chunk order.
//
// Dense IDs therefore depend only on publish order — never on worker
// count or interleaving — and the merger neither hashes, renders nor
// frees: a spent result batch returns to its pool un-reset, and the worker
// that acquires it next tears its messages and events down.  Output bytes
// are pinned by the differential tests against a single-threaded
// reference (tests/reference_pipeline.hpp) at several worker counts.
//
// Four throughput devices keep synchronisation and allocation off the
// per-frame path while leaving the output bytes untouched:
//
//   * MICRO-BATCHING: the pushing thread accumulates a small run of frames
//     per worker (flushed by count or simulated-time gap) and hands the
//     whole run through the queue in one push; workers likewise emit one
//     ResultBatch per frame batch, with all decoded messages back to back
//     in a single vector.  N lock round-trips collapse into one.  Batch
//     formation happens entirely on the pushing thread, so batch shapes —
//     unlike queue depths — are deterministic for a fixed input.
//   * BUFFER POOLING: batches, their frame byte buffers and their message
//     vectors recycle through free-list pools (core/pool.hpp); in steady
//     state the hot path re-uses warm heap capacity instead of allocating.
//   * SPSC RINGS: every hand-off (pusher->worker, worker->merge,
//     merge->writer) is a single-producer/single-consumer ring
//     (core/spsc_ring.hpp) — two atomic ops in the common case instead of
//     a mutex round-trip.  The merger sleeps on one shared RingSignal that
//     fans in all worker output rings.
//   * WRITER THREAD: when a dataset stream is attached, the merger does not
//     touch XML; it hands chunks of finished events to a dedicated writer
//     thread, which renders them into the (cold) output stream off the
//     merge critical path.  The merger flushes its open chunk at the
//     end of every drain cycle, so a flush()-quiesce (wait for
//     results_merged, then for the writer to catch up) always leaves the
//     XML stream byte-complete — which is what keeps checkpoint/resume
//     byte-identical.
//
// The output is bit-identical to that reference for any worker count and
// thread interleaving — asserted by tests, not just claimed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign_stats.hpp"
#include "anon/anonymiser.hpp"
#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"
#include "core/pipeline.hpp"
#include "core/pool.hpp"
#include "core/spsc_ring.hpp"
#include "decode/decoder.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/frames.hpp"
#include "xmlio/schema.hpp"

namespace dtr::core {

struct ParallelPipelineConfig {
  std::uint32_t server_ip = 0xC0A80001;
  std::uint16_t server_port = 4665;
  /// Decode workers; 0 means 1.  Never changes the output bytes, but it
  /// shapes the checkpoint (see save_state()).
  std::size_t workers = 1;
  std::ostream* xml_out = nullptr;  ///< optional dataset destination
  /// Optional extra consumer of the anonymised stream: runs on the merge
  /// thread, in event order (the CLI's --metrics-interval ticker, a
  /// HyperLogLog audience estimate).
  std::function<void(const anon::AnonEvent&)> extra_sink;
  /// Optional metrics registry.  When set, every stage registers its
  /// instruments there (decode.*, anon.*, analysis.*, pipeline.*, span.*)
  /// and records during the run; it must outlive the pipeline.  The feeder
  /// and every worker bind their decoders to the same registry: the
  /// striped counters merge concurrent increments, so `decode.*` still
  /// totals across threads.
  obs::Registry* metrics = nullptr;
  /// Optional structured logger shared by every stage (may be null).
  obs::Logger* log = nullptr;
  /// Optional flight recorder; the feeder and each worker record
  /// drop/reject/stall/error events into their own per-thread rings (may
  /// be null).
  obs::FlightRecorder* flight = nullptr;
  /// Optional pipeline profiler: the pushing (capture feeder) thread, every
  /// worker, the merger and the writer register and attribute their time.
  /// Pure wall-clock observation — never part of the metrics registry, the
  /// series or the checkpoint fingerprint, so output bytes are identical
  /// with or without it.
  obs::Profiler* profiler = nullptr;
};

class ParallelCapturePipeline {
 public:
  explicit ParallelCapturePipeline(const ParallelPipelineConfig& config);
  ~ParallelCapturePipeline();

  ParallelCapturePipeline(const ParallelCapturePipeline&) = delete;
  ParallelCapturePipeline& operator=(const ParallelCapturePipeline&) = delete;

  void push(const sim::TimedFrame& frame);
  PipelineResult finish();

  /// Quiesce to the current intake boundary: flush the open per-worker
  /// batches, then block the pushing thread until every frame routed so
  /// far has been decoded, merged back into sequence order and anonymised
  /// — and, with a dataset stream, until the writer thread has drained
  /// every chunk the merger handed it.  (Settled frames were fully counted
  /// inside push().)  Workers emit exactly one result per routed frame and
  /// the merger publishes its progress and flushes its open chunk at the
  /// end of every drain cycle, so the two waits together mean the XML
  /// stream holds the complete pushed prefix, and the metrics registry
  /// reflects exactly that prefix — the hook the TimeSeriesRecorder needs
  /// for deterministic interval samples.  Call only between pushes.
  void flush();

  /// Statistics accumulator (valid after finish()).
  [[nodiscard]] const analysis::CampaignStats& stats() const { return stats_; }
  /// The fileID table (valid after finish(); exposed for the Figure 3
  /// bucket inspection).
  [[nodiscard]] const anon::BucketedFileIdStore& fileid_store() const {
    return files_;
  }
  [[nodiscard]] std::size_t workers() const { return workers_.size(); }

  /// Checkpoint codec.  save_state may only run while the pipeline is
  /// quiesced (immediately after flush(), before the next push);
  /// restore_state must run before the first push after construction.
  /// When an XML sink is attached, the owner must restore the stream's
  /// contents to the checkpointed prefix itself (DatasetWriter::resume
  /// realigns the writer's cursor here).  The snapshot carries the feeder
  /// decoder's counters next to the workers'.  The
  /// worker count is part of the snapshot: in-flight IP fragments live in the
  /// per-worker reassemblers frames are routed to by flow hash modulo the
  /// worker count, so restoring into a pipeline with a different worker
  /// count is rejected.  The concurrent anonymiser tables serialise
  /// exactly like the paper's single-threaded ones.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

 private:
  struct SequencedFrame {
    std::uint64_t seq = 0;
    sim::TimedFrame frame;
  };

  /// A pushing-thread-built run of consecutive (in routing, not in global
  /// sequence) frames for one worker.  Slots are reused in place — add()
  /// assigns into an existing frame's byte buffer — so a recycled batch's
  /// Bytes never re-allocate in steady state.
  struct FrameBatch {
    std::vector<SequencedFrame> slots;
    std::size_t used = 0;

    void add(std::uint64_t seq, const sim::TimedFrame& frame) {
      if (used == slots.size()) slots.emplace_back();
      SequencedFrame& slot = slots[used];
      slot.seq = seq;
      slot.frame.time = frame.time;
      slot.frame.bytes.assign(frame.bytes.begin(), frame.bytes.end());
      ++used;
    }
    void reset() { used = 0; }  // keeps slots and their byte buffers warm
  };

  /// One worker's output for one FrameBatch: per-frame sequence numbers
  /// and message counts, every decoded message back to back in a single
  /// reusable vector, and the worker's resolve pass over each message: the
  /// event with a hole for every ID not assigned yet, and its lookup tally.
  /// seqs within a batch ascend (the pushing thread assigns them in
  /// order), which is what lets the merger treat a batch as a sorted run.
  struct ResultBatch {
    std::vector<std::uint64_t> seqs;
    std::vector<std::uint32_t> counts;  // messages per frame, same index
    std::vector<decode::DecodedMessage> messages;
    std::vector<anon::AnonEvent> events;  // one per message
    std::vector<anon::ReadOnlyAnonymiser::Tally> tallies;
    /// Messages [0, resolved) were resolved by the worker; a worker failure
    /// leaves the rest for the merger to resolve itself.
    std::size_t resolved = 0;

    void reset() {
      seqs.clear();
      counts.clear();
      messages.clear();
      events.clear();
      tallies.clear();
      resolved = 0;
    }
  };

  /// Cursor over a partially consumed ResultBatch in a merge lane.
  struct PendingBatch {
    ResultBatch batch;
    std::size_t frame = 0;  // next unconsumed index into seqs/counts
    std::size_t msg = 0;    // next unconsumed index into messages

    [[nodiscard]] std::uint64_t front_seq() const { return batch.seqs[frame]; }
  };

  /// Writer hand-off: finished events in sequence order, rendered by the
  /// writer thread.
  struct EventChunk {
    std::vector<anon::AnonEvent> events;
  };

  struct Worker {
    std::unique_ptr<SpscRing<FrameBatch>> in;
    std::unique_ptr<SpscRing<ResultBatch>> out;
    std::unique_ptr<decode::FrameDecoder> decoder;
    std::thread thread;
    std::size_t index = 0;  // for the profiler's "worker.N" label
    bool failed = false;    // worker thread; read by finish() after join
    // Pushing-thread-only state: the open (unflushed) micro-batch.
    FrameBatch open;
    SimTime open_last_time = 0;
  };

  /// Stable UDP frame -> worker routing that keeps IP fragments together.
  std::size_t route(const sim::TimedFrame& frame) const;

  void flush_open_batch(std::size_t target);
  void worker_loop(Worker& worker);
  /// The dialog's client side of `msg`: whoever is not the server.
  std::uint32_t peer_ip(const decode::DecodedMessage& msg) const;
  /// The worker-side read-only §2.4 pass over every message of `result`,
  /// into its sized events and tallies.
  void resolve_pass(ResultBatch& result);
  void merge_loop();
  void writer_loop();
  /// Unconditional lock+notify of the quiesce cv — cheap (once per drain
  /// cycle / writer chunk, not per frame) and immune to the missed-wakeup
  /// race an "is anyone waiting?" flag check would reintroduce.
  void notify_quiesce();
  void note_dropped(std::size_t count, const char* what);
  void bind_metrics(obs::Registry& registry);
  void fail(const char* stage, SimTime time, const std::string& what);

  struct Metrics {
    obs::Counter* frames = nullptr;
    obs::Counter* messages = nullptr;
    obs::Counter* dropped_on_close = nullptr;
    obs::Counter* pool_hits = nullptr;
    obs::Counter* pool_misses = nullptr;
    obs::Counter* writer_chunks = nullptr;
    obs::Counter* writer_events = nullptr;
    obs::Counter* fast_events = nullptr;      // anon.shard.fast_events
    obs::Counter* deferred_events = nullptr;  // anon.shard.deferred_events
    obs::Counter* push_parks = nullptr;
    obs::Counter* worker_parks = nullptr;
    obs::Counter* merge_parks = nullptr;
    obs::Counter* writer_parks = nullptr;
    obs::Gauge* merge_queue_depth = nullptr;
    obs::Gauge* merge_pending = nullptr;
    obs::Gauge* writer_queue_depth = nullptr;
    obs::Gauge* table_pages = nullptr;
    obs::Gauge* table_bytes = nullptr;
    obs::Gauge* shard_files_max = nullptr;
    obs::Histogram* batch_frames = nullptr;
    obs::Histogram* batch_messages = nullptr;
    obs::Histogram* decode_span = nullptr;
    obs::Histogram* anonymise_span = nullptr;
    obs::Histogram* write_span = nullptr;
  };

  ParallelPipelineConfig config_;
  ObjectPool<FrameBatch> frame_pool_;
  ObjectPool<ResultBatch> result_pool_;
  ObjectPool<EventChunk> chunk_pool_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Pushing-thread-only: counts every frame settle() handles (all but
  /// UDP), bound to the same registry and telemetry as the workers.
  decode::FrameDecoder feeder_decoder_;
  /// Pushing-thread-only: time of the last pushed frame.  Workers see only
  /// UDP frames, so their reassemblers expire against this clock at
  /// finish(), as one decoder fed every frame would.
  SimTime last_time_ = 0;
  RingSignal merge_signal_;  // fans in every worker's out ring
  std::unique_ptr<SpscRing<EventChunk>> writer_ring_;  // iff xml_

  anon::DirectClientTable clients_;
  anon::BucketedFileIdStore files_;
  anon::Anonymiser anonymiser_;               // merge side: fills holes
  anon::ReadOnlyAnonymiser read_anonymiser_;  // worker side: resolves
  analysis::CampaignStats stats_;
  std::unique_ptr<xmlio::DatasetWriter> xml_;
  Metrics metrics_;
  /// The pushing thread's profiler registration, taken lazily on the first
  /// push() and released in finish() (both run on the pushing thread).
  obs::ThreadLease feeder_lease_;
  /// The merger bumps this per message and the pusher next_seq_ per frame:
  /// each starts a cache line, so neither bounces the other's line or the
  /// read-mostly members before them.
  alignas(64) std::atomic<std::uint64_t> anonymised_events_{0};

  std::thread merge_thread_;
  std::thread writer_thread_;
  alignas(64) std::uint64_t next_seq_ = 0;  // routed (UDP) frames so far
  /// Results fully processed by the merger (one per routed frame),
  /// published once per drain cycle; with next_seq_ it forms the first
  /// half of the flush() quiescence test.
  alignas(64) std::atomic<std::uint64_t> results_merged_{0};
  /// Events the writer thread has retired (second half of the quiescence
  /// test: the merger increments anonymised_events_ before handing the
  /// chunk off, the writer increments this after writing it).
  std::atomic<std::uint64_t> writer_events_done_{0};
  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;
  std::atomic<bool> dropped_logged_{false};
  std::mutex error_mutex_;
  std::string error_;  // first failure wins; guarded by error_mutex_
  bool finished_ = false;
  decode::DecodeStats total_decode_;
};

/// Former names of the one pipeline and its config, still spelled by
/// donkeybench/workloads.cpp.  A default PipelineConfig runs one worker.
using CapturePipeline = ParallelCapturePipeline;
using PipelineConfig = ParallelPipelineConfig;

}  // namespace dtr::core
