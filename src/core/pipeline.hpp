// The three-stage real-time processing pipeline (paper Figure 1):
//
//   capture (caller thread)  ->  [frame queue]  ->  decode thread
//   ->  [message queue]  ->  anonymise/format/accumulate thread
//
// The anonymisation stage is intentionally single-threaded: order-of-
// appearance encoding makes anonymised IDs depend on processing order, and
// a deterministic dataset requires a deterministic order.  The decode stage
// is stateless per datagram (IP reassembly aside) and feeds it in arrival
// order through the queue.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "analysis/campaign_stats.hpp"
#include "anon/anonymiser.hpp"
#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"
#include "core/queue.hpp"
#include "decode/decoder.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/frames.hpp"
#include "xmlio/schema.hpp"

namespace dtr::core {

class ServerWorkerPool;

struct PipelineConfig {
  std::uint32_t server_ip = 0xC0A80001;
  std::uint16_t server_port = 4665;
  /// fileID anonymisation index bytes (paper §2.4: (0,1) is pathological
  /// under forged IDs; the default is the fixed choice).
  unsigned fileid_index_byte_0 = 5;
  unsigned fileid_index_byte_1 = 11;
  /// clientID table paging (paper §2.4): kPaged materialises 4 KiB pages on
  /// first touch; kFlat pre-allocates the span below
  /// 2^client_table_space_bits up front (32 = the paper's full 16 GB
  /// array).  Purely a space/latency trade — assigned IDs, output bytes
  /// and checkpoint bytes are identical across modes, so a snapshot from
  /// one mode resumes under the other.
  anon::DirectClientTable::PageMode client_table_mode =
      anon::DirectClientTable::PageMode::kPaged;
  std::uint32_t client_table_space_bits = 32;
  std::ostream* xml_out = nullptr;  ///< optional dataset destination
  bool keep_events = false;         ///< retain anonymised events in memory
  /// Optional extra consumer of the anonymised stream (runs on the
  /// anonymisation thread, in event order) — e.g. an ActivityTracker or
  /// FileSpreadTracker.
  std::function<void(const anon::AnonEvent&)> extra_sink;
  /// Optional metrics registry.  When set, every stage registers its
  /// instruments there (decode.*, anon.*, analysis.*, pipeline.*, span.*)
  /// and records during the run.  Must outlive the pipeline.
  obs::Registry* metrics = nullptr;
  /// Optional structured logger, shared by every stage (must outlive the
  /// pipeline; may be null).
  obs::Logger* log = nullptr;
  /// Optional flight recorder: stages record drop/reject/stall/error
  /// events into per-thread rings for post-mortem dumps (must outlive the
  /// pipeline; may be null — recording is a no-op then).
  obs::FlightRecorder* flight = nullptr;
  /// Optional shadow-serving pool: every decoded client->server query is
  /// resubmitted to a live reference EdonkeyServer through this pool, so a
  /// captured trace can be replayed against the sharded index at full
  /// concurrency.  flush()/finish() drain it (must outlive the pipeline).
  ServerWorkerPool* replay = nullptr;
  /// Optional pipeline profiler: the decode/anonymise threads and the
  /// pushing (capture feeder) thread register and attribute their time
  /// (working / queue_wait / park / lock_wait).  Never feeds the metrics
  /// registry, the time series, or the checkpoint fingerprint.  Must
  /// outlive the pipeline; may be null.
  obs::Profiler* profiler = nullptr;
};

/// End-of-run snapshot of everything the pipeline accumulated.
struct PipelineResult {
  decode::DecodeStats decode;
  std::uint64_t distinct_clients = 0;
  std::uint64_t distinct_files = 0;
  std::uint64_t anonymised_events = 0;
  std::uint64_t xml_events = 0;
  /// First stage failure ("stage: what"), empty on a clean run.  A failed
  /// stage stops processing but keeps draining its queue, so finish()
  /// still returns — with partial results and this set.
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

class CapturePipeline {
 public:
  explicit CapturePipeline(const PipelineConfig& config);
  ~CapturePipeline();

  CapturePipeline(const CapturePipeline&) = delete;
  CapturePipeline& operator=(const CapturePipeline&) = delete;

  /// Feed one captured frame (blocking when the pipeline is saturated —
  /// loss, if any, belongs to the kernel buffer upstream, not here).
  void push(const sim::TimedFrame& frame);

  /// Close the intake, drain both stages, join the threads.
  PipelineResult finish();

  /// Quiesce to the current intake boundary: block the calling (pushing)
  /// thread until every frame pushed so far has been decoded AND every
  /// message those frames produced has been anonymised.  At return the
  /// metrics registry reflects exactly the pushed prefix — the hook the
  /// TimeSeriesRecorder needs for deterministic interval samples.  Cheap
  /// when already drained (two counter comparisons); call only between
  /// pushes.
  void flush();

  /// Statistics accumulator (valid after finish()).
  [[nodiscard]] const analysis::CampaignStats& stats() const { return stats_; }

  /// Anonymised events (only if keep_events was set; valid after finish()).
  [[nodiscard]] const std::vector<anon::AnonEvent>& events() const {
    return events_;
  }

  /// The anonymisation tables (valid after finish(); exposed for the
  /// Figure 3 bucket inspection and for tests).
  [[nodiscard]] const anon::BucketedFileIdStore& fileid_store() const {
    return files_;
  }
  [[nodiscard]] const anon::DirectClientTable& client_table() const {
    return clients_;
  }

  /// Checkpoint codec.  save_state may only run while the pipeline is
  /// quiesced (immediately after flush(), before the next push);
  /// restore_state must run before the first push after construction.
  /// keep_events buffers are not serialized — a resumed run retains only
  /// post-resume events.  When an XML sink is attached, the owner must
  /// restore the stream's contents to the checkpointed prefix itself
  /// (DatasetWriter::resume realigns the writer's cursor here).
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

 private:
  void decode_loop();
  void anonymise_loop();
  void note_dropped(std::size_t count, const char* what);
  void bind_metrics(obs::Registry& registry);
  void fail(const char* stage, SimTime time, const std::string& what);

  struct Metrics {
    obs::Counter* frames = nullptr;
    obs::Counter* messages = nullptr;
    obs::Counter* dropped_on_close = nullptr;
    obs::Gauge* frame_queue_depth = nullptr;
    obs::Gauge* message_queue_depth = nullptr;
    obs::Histogram* decode_span = nullptr;
    obs::Histogram* anonymise_span = nullptr;
    obs::Gauge* table_pages = nullptr;
    obs::Gauge* table_bytes = nullptr;
  };

  void update_table_gauges();

  PipelineConfig config_;
  BoundedQueue<sim::TimedFrame> frame_queue_;
  BoundedQueue<decode::DecodedMessage> message_queue_;

  anon::DirectClientTable clients_;
  anon::BucketedFileIdStore files_;
  anon::Anonymiser anonymiser_;
  analysis::CampaignStats stats_;
  std::unique_ptr<xmlio::DatasetWriter> xml_;
  std::vector<anon::AnonEvent> events_;

  std::unique_ptr<decode::FrameDecoder> decoder_;
  Metrics metrics_;
  /// The pushing thread's profiler registration, taken lazily on the first
  /// push() and released in finish() (both run on the pushing thread).
  obs::ThreadLease feeder_lease_;
  std::uint64_t anonymised_events_ = 0;
  SimTime last_time_ = 0;

  // Stage progress counters for flush(): "done" trails "offered" on each
  // edge; equality on both edges means the pipeline is drained to the
  // intake boundary.
  std::atomic<std::uint64_t> frames_pushed_{0};
  std::atomic<std::uint64_t> frames_decoded_{0};
  std::atomic<std::uint64_t> messages_enqueued_{0};
  std::atomic<std::uint64_t> messages_done_{0};

  std::atomic<bool> dropped_logged_{false};
  std::mutex error_mutex_;
  std::string error_;  // first failure wins; guarded by error_mutex_

  std::thread decode_thread_;
  std::thread anonymise_thread_;
  bool finished_ = false;
};

}  // namespace dtr::core
