#include "core/campaign_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/checkpoint.hpp"

namespace dtr::core {

RunnerConfig RunnerConfig::tiny(std::uint64_t seed) {
  RunnerConfig cfg;
  cfg.campaign.seed = seed;
  cfg.campaign.duration = 6 * kHour;
  cfg.campaign.population.client_count = 120;
  cfg.campaign.catalog.file_count = 800;
  cfg.campaign.catalog.vocabulary = 300;
  cfg.campaign.population.collector_share_max = 1'200;
  cfg.campaign.population.scanner_ask_max = 700;
  cfg.campaign.flash_crowd_count = 2;
  return cfg;
}

std::string checkpoint_file_name(SimTime boundary) {
  std::string digits = std::to_string(boundary);
  std::string name = "checkpoint-";
  name.append(20 - digits.size(), '0');  // u64 is at most 20 decimal digits
  name += digits;
  name += ".ckpt";
  return name;
}

namespace {

/// The config fingerprint stored in the "meta" section: a snapshot only
/// resumes into a runner whose config would have produced it.
struct CheckpointMeta {
  std::uint64_t seed = 0;
  std::uint64_t duration = 0;
  std::uint64_t clients = 0;
  std::uint64_t files = 0;
  std::uint64_t workers = 0;  // normalised: 0 and 1 both mean one worker
  std::uint64_t buffer_capacity = 0;
  std::uint8_t has_background = 0;
  std::uint64_t background_seed = 0;
  /// ScenarioConfig::fingerprint() — 0 for steady/no scenario.  A storm
  /// campaign must not silently resume as (or from) a steady one.
  std::uint64_t scenario_fingerprint = 0;
  std::uint8_t has_xml = 0;
  std::uint8_t has_pcap = 0;
  std::uint8_t has_series = 0;
  std::uint8_t has_metrics = 0;
  /// Chunk grid of the compressed dataset stream, 0 when compression is
  /// off.  The grid fixes where container frames fall, so a compressed
  /// snapshot only resumes onto the same grid (the pool size stays out of
  /// the fingerprint).
  std::uint64_t compress_chunk = 0;
  std::uint64_t boundary = 0;  // simulated time the snapshot was taken at
};

CheckpointMeta meta_of(const RunnerConfig& cfg, SimTime boundary) {
  CheckpointMeta m;
  m.seed = cfg.campaign.seed;
  m.duration = cfg.campaign.duration;
  m.clients = cfg.campaign.population.client_count;
  m.files = cfg.campaign.catalog.file_count;
  m.workers = cfg.workers > 1 ? cfg.workers : 1;
  m.buffer_capacity = cfg.buffer.capacity;
  m.has_background = cfg.background.has_value() ? 1 : 0;
  m.background_seed = cfg.background ? cfg.background->seed : 0;
  m.scenario_fingerprint =
      cfg.campaign.scenario ? cfg.campaign.scenario->fingerprint() : 0;
  m.has_xml = cfg.xml_out != nullptr ? 1 : 0;
  m.has_pcap = cfg.pcap_path.empty() ? 0 : 1;
  m.has_series = cfg.series != nullptr ? 1 : 0;
  m.has_metrics = cfg.metrics != nullptr ? 1 : 0;
  m.compress_chunk =
      cfg.compress && cfg.xml_out != nullptr ? cfg.compress_chunk_bytes : 0;
  m.boundary = boundary;
  return m;
}

void save_meta(const CheckpointMeta& m, ByteWriter& out) {
  out.u64le(m.seed);
  out.u64le(m.duration);
  out.u64le(m.clients);
  out.u64le(m.files);
  out.u64le(m.workers);
  out.u64le(m.buffer_capacity);
  out.u8(m.has_background);
  out.u64le(m.background_seed);
  out.u64le(m.scenario_fingerprint);
  out.u8(m.has_xml);
  out.u8(m.has_pcap);
  out.u8(m.has_series);
  out.u8(m.has_metrics);
  out.u64le(m.compress_chunk);
  out.u64le(m.boundary);
}

bool read_meta(ByteReader& in, CheckpointMeta& m) {
  m.seed = in.u64le();
  m.duration = in.u64le();
  m.clients = in.u64le();
  m.files = in.u64le();
  m.workers = in.u64le();
  m.buffer_capacity = in.u64le();
  m.has_background = in.u8();
  m.background_seed = in.u64le();
  m.scenario_fingerprint = in.u64le();
  m.has_xml = in.u8();
  m.has_pcap = in.u8();
  m.has_series = in.u8();
  m.has_metrics = in.u8();
  m.compress_chunk = in.u64le();
  m.boundary = in.u64le();
  return in.ok();
}

/// The dataset stream of a run that checkpoints or resumes.  Bytes pass to
/// the caller's `xml_out` and, when the run checkpoints, are appended to
/// the dataset journal and hashed as they go.  Until open() it drops what
/// it is given: on a resume, what the sinks emit while they are built (the
/// container header, the XML prologue) is already in the journal's prefix.
class DatasetTee final : public std::ostream {
 public:
  explicit DatasetTee(std::ostream& out) : std::ostream(nullptr), buf_(out) {
    rdbuf(&buf_);
  }
  DatasetTee(const DatasetTee&) = delete;
  DatasetTee& operator=(const DatasetTee&) = delete;

  /// Start passing bytes.  `journal`, when open, receives them too; `md5`
  /// and `length` describe the bytes it already holds.
  void open(std::ofstream journal, const Md5& md5, std::uint64_t length) {
    buf_.journal = std::move(journal);
    buf_.md5 = md5;
    buf_.length = length;
    buf_.open = true;
  }

  /// Push the journal to its file and say where it stands; nullopt once
  /// any journal write has failed.
  std::optional<JournalMark> mark() {
    buf_.journal.flush();
    if (!buf_.journal) return std::nullopt;
    Md5 md5 = buf_.md5;
    return JournalMark{buf_.length, md5.finish()};
  }

 private:
  struct Buf final : std::streambuf {
    explicit Buf(std::ostream& o) : out(o) {}

    std::streamsize xsputn(const char* s, std::streamsize n) override {
      if (!open) return n;
      out.write(s, n);
      if (journal.is_open()) {
        journal.write(s, n);
        md5.update(BytesView(reinterpret_cast<const std::uint8_t*>(s),
                             static_cast<std::size_t>(n)));
        length += static_cast<std::uint64_t>(n);
      }
      return out ? n : 0;
    }
    int overflow(int ch) override {
      if (ch == traits_type::eof()) return traits_type::not_eof(ch);
      const char c = static_cast<char>(ch);
      return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
    }
    int sync() override {
      if (!open) return 0;
      out.flush();
      if (journal.is_open()) journal.flush();
      return out ? 0 : -1;
    }

    std::ostream& out;
    std::ofstream journal;
    Md5 md5;
    std::uint64_t length = 0;
    bool open = false;
  };

  Buf buf_;
};

/// First mismatching field name, or nullptr when the snapshot fits.
const char* meta_mismatch(const CheckpointMeta& want,
                          const CheckpointMeta& got) {
  if (got.seed != want.seed) return "seed";
  if (got.duration != want.duration) return "duration";
  if (got.clients != want.clients) return "client count";
  if (got.files != want.files) return "file count";
  if (got.workers != want.workers) return "worker count";
  if (got.buffer_capacity != want.buffer_capacity) return "buffer capacity";
  if (got.has_background != want.has_background ||
      got.background_seed != want.background_seed) {
    return "background traffic";
  }
  if (got.scenario_fingerprint != want.scenario_fingerprint) return "scenario";
  if (got.has_xml != want.has_xml) return "xml output";
  if (got.has_pcap != want.has_pcap) return "pcap output";
  if (got.has_series != want.has_series) return "time series";
  if (got.has_metrics != want.has_metrics) return "metrics registry";
  if (got.compress_chunk != want.compress_chunk) return "compression chunk";
  return nullptr;
}

}  // namespace

std::optional<analysis::ScenarioSummary> build_scenario_summary(
    const sim::Scenario* scenario, const CampaignReport& report) {
  if (scenario == nullptr || !scenario->engaged()) return std::nullopt;
  analysis::ScenarioSummary s;
  s.name = sim::scenario_kind_name(scenario->config().kind);
  s.duration_s = to_seconds(scenario->duration());
  s.frames_captured = report.frames_captured;
  s.frames_lost = report.frames_lost;
  s.buffer_high_water = report.buffer_high_water;
  s.publishes = report.truth.publishes;
  s.polluted_entries = report.truth.polluted_entries;
  s.sessions = report.truth.stat_pings;
  s.loss_curve.reserve(report.loss_series.size());
  for (const capture::LossPoint& p : report.loss_series) {
    s.loss_curve.emplace_back(p.second, p.lost);
  }
  for (const sim::ScenarioPhase& phase : scenario->phases()) {
    analysis::ScenarioSummary::Phase row;
    row.begin_s = to_seconds(phase.begin);
    row.end_s = to_seconds(phase.end);
    row.arrival_boost = phase.arrival_boost;
    row.background_boost = phase.background_boost;
    row.think_scale = phase.think_scale;
    row.polluter_flood = phase.polluter_targets_popular;
    for (const capture::LossPoint& p : report.loss_series) {
      if (p.second >= row.begin_s && p.second < row.end_s) {
        row.frames_lost += p.lost;
      }
    }
    s.phases.push_back(row);
  }
  return s;
}

CampaignRunner::CampaignRunner(const RunnerConfig& config)
    : config_(config), simulator_(config.campaign) {}

CampaignReport CampaignRunner::run() {
  const bool checkpointing = !config_.checkpoint_dir.empty();
  const bool resuming = !config_.resume_from.empty();

  // A malformed scenario config is rejected before any subsystem runs (the
  // CLI surfaces this as a clean nonzero exit, never an abort mid-storm).
  if (config_.campaign.scenario) {
    const std::string bad = config_.campaign.scenario->validate();
    if (!bad.empty()) {
      DTR_LOG_ERROR(config_.log, "scenario", 0,
                    "scenario config rejected: " << bad);
      CampaignReport report;
      report.pipeline.error = "scenario: " + bad;
      return report;
    }
  }

  // A failed checkpoint parse/restore reports through the pipeline error
  // channel (the run produced nothing trustworthy).
  auto fail_run = [&](const std::string& what) {
    DTR_LOG_ERROR(config_.log, "checkpoint", 0, what);
    CampaignReport report;
    if (pipeline_) report.pipeline = pipeline_->finish();
    report.pipeline.error = "checkpoint: " + what;
    return report;
  };

  // Parse and fingerprint-check the snapshot before any subsystem exists:
  // a rejected snapshot must leave nothing half-restored.
  std::optional<CheckpointView> view;
  SimTime resume_time = 0;
  if (resuming) {
    std::string err;
    view = CheckpointView::load(config_.resume_from, err);
    if (!view) {
      return fail_run("cannot resume from '" + config_.resume_from +
                      "': " + err);
    }
    CheckpointMeta meta;
    ByteReader meta_reader = view->reader("meta");
    if (!read_meta(meta_reader, meta)) {
      return fail_run("snapshot meta section missing or malformed");
    }
    const CheckpointMeta want = meta_of(config_, 0);
    if (const char* field = meta_mismatch(want, meta)) {
      return fail_run(std::string("snapshot does not match this config (") +
                      field + " differs)");
    }
    resume_time = meta.boundary;
  }

  // The dataset journal a resume reads: the one in the snapshot's own
  // directory, verified up to the snapshot's mark before a byte of it
  // reaches `xml_out`.
  JournalMark journal_mark;
  std::optional<Md5> journal_md5;
  std::string journal_in;
  if (resuming && config_.xml_out != nullptr) {
    ByteReader r = view->reader("journal");
    if (!journal_mark.restore(r)) {
      return fail_run("snapshot journal section rejected");
    }
    std::filesystem::path dir =
        std::filesystem::path(config_.resume_from).parent_path();
    if (dir.empty()) dir = ".";
    journal_in = (dir / kJournalFileName).string();
    std::string err;
    journal_md5 = verify_journal(journal_in, journal_mark, err);
    if (!journal_md5) return fail_run(err);
  }

  capture::CaptureEngine engine(config_.buffer);
  if (!config_.pcap_path.empty()) {
    if (resuming) {
      ByteReader r = view->reader("pcap");
      const std::uint64_t pcap_bytes = r.u64le();
      const std::uint64_t pcap_records = r.u64le();
      if (!r.ok()) return fail_run("snapshot pcap section rejected");
      pcap_ = std::make_unique<net::PcapWriter>(config_.pcap_path, pcap_bytes,
                                                pcap_records);
      if (!pcap_->ok()) {
        return fail_run("pcap file '" + config_.pcap_path +
                        "' is shorter than the snapshot's offset");
      }
    } else {
      pcap_ = std::make_unique<net::PcapWriter>(config_.pcap_path);
    }
    engine.set_pcap(pcap_.get());
  }

  if (config_.metrics != nullptr) {
    engine.bind_metrics(*config_.metrics);
    simulator_.bind_metrics(*config_.metrics);
  }
  engine.bind_telemetry(config_.log, config_.flight);
  simulator_.bind_telemetry(config_.log);

  // scenario.* instruments: which wave (if any) the campaign is in and the
  // intensity multipliers it applies.  Pure functions of simulated time, so
  // they are measured: byte-reproducible across worker counts and resume.
  const sim::Scenario* scenario = simulator_.scenario();
  obs::Gauge* sc_phase = nullptr;
  obs::Gauge* sc_arrival = nullptr;
  obs::Gauge* sc_background = nullptr;
  obs::Gauge* sc_think = nullptr;
  obs::Gauge* sc_flood = nullptr;
  if (config_.metrics != nullptr && scenario != nullptr) {
    sc_phase = &config_.metrics->gauge("scenario.phase");
    sc_arrival = &config_.metrics->gauge("scenario.arrival_boost_milli");
    sc_background = &config_.metrics->gauge("scenario.background_boost_milli");
    sc_think = &config_.metrics->gauge("scenario.think_scale_milli");
    sc_flood = &config_.metrics->gauge("scenario.polluter_flood");
  }
  // Only rewritten when the frame clock crosses a wave edge.
  int scenario_last_phase = -2;

  // checkpoint.* instruments: whether and when a run checkpoints is
  // operational, not part of the measured campaign.  A snapshot saves only
  // measured instruments, so these count since this process started.
  obs::Counter* ckpt_writes = nullptr;
  obs::Counter* ckpt_write_failures = nullptr;
  obs::Counter* ckpt_bytes = nullptr;
  obs::Counter* ckpt_restores = nullptr;
  obs::Gauge* ckpt_last_time = nullptr;
  if (config_.metrics != nullptr && (checkpointing || resuming)) {
    obs::Registry& r = *config_.metrics;
    constexpr auto kOps = obs::Determinism::kOperational;
    ckpt_writes = &r.counter("checkpoint.writes", kOps);
    ckpt_write_failures = &r.counter("checkpoint.write_failures", kOps);
    ckpt_bytes = &r.counter("checkpoint.bytes", kOps);
    ckpt_restores = &r.counter("checkpoint.restores", kOps);
    ckpt_last_time = &r.gauge("checkpoint.last_time", kOps);
  }

  // When checkpoint/resume is in play and an XML sink is attached, the
  // dataset passes through a tee: a checkpointing run journals it next to
  // its snapshots, and a resume drops the sinks' construction output and
  // writes the journal's verified prefix instead.
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpoint_dir, ec);
  }
  const std::string journal_out =
      checkpointing ? (std::filesystem::path(config_.checkpoint_dir) /
                       kJournalFileName)
                          .string()
                    : std::string();
  std::unique_ptr<DatasetTee> tee;
  std::ostream* xml_sink = config_.xml_out;
  if ((checkpointing || resuming) && config_.xml_out != nullptr) {
    tee = std::make_unique<DatasetTee>(*config_.xml_out);
    xml_sink = tee.get();
    if (!resuming) {
      tee->open(std::ofstream(journal_out, std::ios::binary | std::ios::trunc),
                Md5{}, 0);
    }
  }

  // Compressed streaming: the pipeline writes plain XML into the chunked
  // compressor, which emits the container to whatever sink the rules above
  // chose.  The compressor's appender is the pipeline's writer thread;
  // barrier/save/restore run on this thread only after a quiesce, which
  // orders them after every append of the pushed prefix.
  std::unique_ptr<xmlio::CompressingOstream> compressor;
  if (config_.compress && config_.xml_out != nullptr) {
    xmlio::ChunkedWriterConfig zcfg;
    zcfg.chunk_bytes = config_.compress_chunk_bytes;
    zcfg.threads = xmlio::kCompressThreads;
    zcfg.metrics = config_.metrics;
    compressor = std::make_unique<xmlio::CompressingOstream>(*xml_sink, zcfg);
    xml_sink = compressor.get();
  }

  ParallelPipelineConfig pipeline_config;
  pipeline_config.server_ip = config_.campaign.server_ip;
  pipeline_config.server_port = config_.campaign.server_port;
  pipeline_config.workers = config_.workers;
  pipeline_config.xml_out = xml_sink;
  pipeline_config.extra_sink = config_.extra_sink;
  pipeline_config.metrics = config_.metrics;
  pipeline_config.log = config_.log;
  pipeline_config.flight = config_.flight;
  pipeline_config.profiler = config_.profiler;
  pipeline_ = std::make_unique<ParallelCapturePipeline>(pipeline_config);
  engine.set_sink(
      [this](const sim::TimedFrame& frame) { pipeline_->push(frame); });

  auto quiesce = [&] {
    pipeline_->flush();
    // The appending thread is idle now; drain the compressor pool so the
    // container prefix on the sink ends at a frame boundary.
    if (compressor) compressor->writer().barrier();
  };

  // The background generator and its one-frame lookahead live at runner
  // scope: the pending frame is part of the merge state a snapshot must
  // carry (the generator's cursor is already past it).
  std::optional<sim::BackgroundTraffic> background;
  std::optional<sim::TimedFrame> pending;
  if (config_.background) {
    sim::BackgroundConfig bg = *config_.background;
    bg.duration = config_.campaign.duration;
    bg.server_ip = config_.campaign.server_ip;
    background.emplace(bg);
    // Scenario envelope: a pure function of sim time, so it is attached
    // (not restored) — before the first next() and before any resume.
    if (const sim::Scenario* sc = simulator_.scenario()) {
      background->set_envelope(
          [sc](SimTime t) { return sc->background_boost(t); });
    }
    if (!resuming) pending = background->next();
  }

  if (resuming) {
    // Restore order: registry first (plain value overwrite), then the
    // subsystems — some recompute gauges from restored state, which must
    // win over the snapshot's raw values.
    if (config_.metrics != nullptr) {
      obs::Snapshot snap;
      ByteReader r = view->reader("metrics");
      if (!snap.restore_state(r) || !config_.metrics->restore(snap)) {
        return fail_run("snapshot metrics section rejected");
      }
    }
    {
      ByteReader r = view->reader("sim");
      if (!simulator_.restore_state(r)) {
        return fail_run("snapshot sim section rejected");
      }
    }
    {
      ByteReader r = view->reader("capture");
      if (!engine.restore_state(r)) {
        return fail_run("snapshot capture section rejected");
      }
    }
    if (compressor) {
      // The journal's prefix is the snapshot's container prefix (frame-
      // aligned); give the writer back its chunk cursor and the
      // uncompressed tail that had not filled a chunk yet.  This discards
      // the fresh prologue the construction above emitted.
      ByteReader r = view->reader("xmlz");
      if (!compressor->writer().restore_state(r) || !r.ok() ||
          compressor->writer().compressed_bytes() != journal_mark.length) {
        return fail_run("snapshot compressed-stream section rejected");
      }
    }
    {
      ByteReader r = view->reader("pipeline");
      if (!pipeline_->restore_state(r)) {
        return fail_run("snapshot pipeline section rejected");
      }
    }
    if (config_.series != nullptr) {
      ByteReader r = view->reader("series");
      if (!config_.series->restore_state(r)) {
        return fail_run("snapshot series section rejected");
      }
    }
    if (background) {
      ByteReader r = view->reader("background");
      if (r.u8() != 0) {
        sim::TimedFrame f;
        f.time = r.u64le();
        const std::uint32_t len = r.u32le();
        if (len > r.remaining()) r.fail();
        const BytesView raw = r.raw(len);
        f.bytes.assign(raw.begin(), raw.end());
        pending = std::move(f);
      }
      if (!background->restore_state(r) || !r.ok()) {
        return fail_run("snapshot background section rejected");
      }
    }
    if (tee) {
      // Every section restored: the verified prefix goes out, then the tee
      // passes the bytes that follow it.  Resumed into the snapshot's own
      // directory, the run cuts the journal back to the mark and appends;
      // elsewhere it starts its own journal with the prefix.
      if (!copy_journal_prefix(journal_in, journal_mark.length,
                               *config_.xml_out)) {
        return fail_run("cannot copy the dataset journal '" + journal_in +
                        "'");
      }
      std::ofstream journal;
      if (checkpointing) {
        std::error_code ec;
        if (std::filesystem::equivalent(journal_in, journal_out, ec)) {
          std::filesystem::resize_file(journal_in, journal_mark.length, ec);
          journal.open(journal_out, std::ios::binary | std::ios::app);
          if (ec) journal.setstate(std::ios::failbit);
        } else {
          journal.open(journal_out, std::ios::binary | std::ios::trunc);
          if (!copy_journal_prefix(journal_in, journal_mark.length, journal)) {
            journal.setstate(std::ios::failbit);
          }
        }
      }
      tee->open(std::move(journal), *journal_md5, journal_mark.length);
    }
    obs::inc(ckpt_restores);
    obs::set(ckpt_last_time, static_cast<std::int64_t>(resume_time));
    obs::record(config_.flight, obs::FlightEvent::kCheckpointRestore,
                resume_time, resume_time,
                view->section("sim") != nullptr ? view->section("sim")->size()
                                                : 0);
    DTR_LOG_INFO(config_.log, "checkpoint", resume_time,
                 "resumed from '" << config_.resume_from << "' (boundary "
                                  << resume_time << ")");
  }

  // Write one snapshot for the quiesced state at `boundary` (atomic
  // stage-and-rename; a failure leaves any previous snapshot intact and
  // the run continues — the next boundary tries again).  Returns the wall
  // cost and on-disk size for the boundary sink.
  auto write_checkpoint =
      [&](SimTime boundary) -> std::pair<double, std::uint64_t> {
    // Wall-clock the whole snapshot (serialise + write + rename): the
    // profiler's checkpoint-cost series answers "what does a snapshot cost
    // the campaign per boundary".
    const auto ckpt_t0 = std::chrono::steady_clock::now();
    CheckpointBuilder builder;
    {
      ByteWriter w;
      save_meta(meta_of(config_, boundary), w);
      builder.add("meta", std::move(w).take());
    }
    {
      ByteWriter w;
      simulator_.save_state(w);
      builder.add("sim", std::move(w).take());
    }
    {
      ByteWriter w;
      engine.save_state(w);
      builder.add("capture", std::move(w).take());
    }
    {
      ByteWriter w;
      pipeline_->save_state(w);
      builder.add("pipeline", std::move(w).take());
    }
    if (config_.metrics != nullptr) {
      ByteWriter w;
      config_.metrics->measured_snapshot().save_state(w);
      builder.add("metrics", std::move(w).take());
    }
    if (config_.series != nullptr) {
      ByteWriter w;
      config_.series->save_state(w);
      builder.add("series", std::move(w).take());
    }
    std::string err;
    if (tee) {
      // The journal on disk must cover the mark, as the pcap file must
      // cover its offset.
      if (const std::optional<JournalMark> mark = tee->mark()) {
        ByteWriter w;
        mark->save(w);
        builder.add("journal", std::move(w).take());
      } else {
        err = "cannot write the dataset journal '" + journal_out + "'";
      }
    }
    if (compressor) {
      // quiesce() ran: the journal ends at a container frame boundary, and
      // this section carries the chunk cursor plus the uncompressed tail
      // still waiting to fill a chunk.
      ByteWriter w;
      compressor->writer().save_state(w);
      builder.add("xmlz", std::move(w).take());
    }
    if (background) {
      ByteWriter w;
      w.u8(pending.has_value() ? 1 : 0);
      if (pending) {
        w.u64le(pending->time);
        w.u32le(static_cast<std::uint32_t>(pending->bytes.size()));
        w.raw(pending->bytes);
      }
      background->save_state(w);
      builder.add("background", std::move(w).take());
    }
    if (pcap_) {
      pcap_->flush();  // the file on disk must cover the stored offset
      ByteWriter w;
      w.u64le(pcap_->bytes_written());
      w.u64le(pcap_->records_written());
      builder.add("pcap", std::move(w).take());
    }

    const std::string path =
        (std::filesystem::path(config_.checkpoint_dir) /
         checkpoint_file_name(boundary))
            .string();
    if (err.empty()) err = builder.write_file(path);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      ckpt_t0)
            .count();
    if (err.empty()) {
      std::error_code ec;
      const std::uint64_t size = std::filesystem::file_size(path, ec);
      obs::inc(ckpt_writes);
      obs::inc(ckpt_bytes, ec ? 0 : size);
      obs::set(ckpt_last_time, static_cast<std::int64_t>(boundary));
      obs::note_checkpoint(config_.profiler, boundary, wall_s, ec ? 0 : size);
      obs::record(config_.flight, obs::FlightEvent::kCheckpointWrite, boundary,
                  boundary, size);
      DTR_LOG_INFO(config_.log, "checkpoint", boundary,
                   "snapshot written: " << path << " (" << size << " bytes)");
      return {wall_s, ec ? 0 : size};
    }
    obs::inc(ckpt_write_failures);
    obs::record(config_.flight, obs::FlightEvent::kCheckpointWrite, boundary,
                boundary, 0);
    DTR_LOG_ERROR(config_.log, "checkpoint", boundary,
                  "snapshot write failed: " << err);
    return {wall_s, 0};
  };

  // Every frame funnels through here in time order, which makes it the
  // natural clock edge for the time-series recorder: when a frame's
  // timestamp crosses a sample boundary, quiesce the pipeline (so interval
  // counters are exact and scheduling-independent) and sample before the
  // frame is offered.  The frame at exactly the boundary lands in the next
  // interval.
  auto feed = [&](const sim::TimedFrame& f) {
    if (config_.series != nullptr && config_.series->due(f.time)) {
      quiesce();
      do {
        config_.series->sample();
      } while (config_.series->due(f.time));
    }
    if (sc_phase != nullptr) {
      const int phase = scenario->phase_index(f.time);
      if (phase != scenario_last_phase) {
        scenario_last_phase = phase;
        const auto milli = [](double v) {
          return static_cast<std::int64_t>(std::llround(v * 1000.0));
        };
        obs::set(sc_phase, phase);
        obs::set(sc_arrival, milli(scenario->arrival_boost(f.time)));
        obs::set(sc_background, milli(scenario->background_boost(f.time)));
        obs::set(sc_think, milli(scenario->think_scale(f.time)));
        obs::set(sc_flood, scenario->polluter_targets_popular(f.time) ? 1 : 0);
      }
    }
    engine.offer(f);
  };

  // Campaign + background streams are both time-ordered; merge them lazily
  // (the background alone can be tens of millions of frames — never
  // materialised).
  sim::FrameSink sink;
  if (background) {
    sink = [&](const sim::TimedFrame& f) {
      while (pending && pending->time <= f.time) {
        feed(*pending);
        pending = background->next();
      }
      feed(f);
    };
  } else {
    sink = feed;
  }

  if (checkpointing && config_.checkpoint_interval > 0) {
    // Segment the campaign at checkpoint boundaries.  run_until() produces
    // the exact frame sequence run() does, and background frames drained at
    // a boundary are exactly those an uninterrupted merge would have fed
    // before the next campaign frame (whose time is >= the boundary), so
    // the capture stream is independent of where the boundaries fall.
    SimTime boundary =
        (resume_time / config_.checkpoint_interval + 1) *
        config_.checkpoint_interval;
    while (simulator_.run_until(boundary, sink)) {
      while (pending && pending->time < boundary) {
        feed(*pending);
        pending = background->next();
      }
      quiesce();
      const auto [wall_s, bytes] = write_checkpoint(boundary);
      if (config_.boundary_sink) {
        config_.boundary_sink(
            RunnerConfig::BoundarySample{boundary, wall_s, bytes});
      }
      boundary += config_.checkpoint_interval;
    }
  } else {
    simulator_.run_until(~SimTime{0}, sink);
  }
  // Campaign exhausted: drain whatever background outlives it.
  while (pending) {
    feed(*pending);
    pending = background->next();
  }

  CampaignReport report;
  report.pipeline = pipeline_->finish();
  // The pipeline closed its writers (the XML epilogue is appended); flush
  // the final partial chunk and the container end frame behind it.
  if (compressor) compressor->writer().finish();
  if (config_.series != nullptr) {
    // The pipeline has fully drained: record the tail boundaries against
    // final counters.  Sessions started near the campaign end emit frames
    // past the nominal duration, so pad to whichever is later — the
    // campaign end or the next unsampled boundary — to guarantee the last
    // partial interval is captured (sum of deltas == end-of-run totals).
    config_.series->finish(std::max(config_.campaign.duration,
                                    config_.series->next_sample_time()));
  }
  if (!report.pipeline.ok()) {
    DTR_LOG_ERROR(config_.log, "runner", config_.campaign.duration,
                  "campaign pipeline failed: " << report.pipeline.error);
  }
  report.truth = simulator_.truth();
  report.frames_captured = engine.captured();
  report.frames_lost = engine.lost();
  report.buffer_high_water = engine.buffer_high_water();
  report.loss_series = engine.loss_series();
  if (pcap_) pcap_->flush();
  if (tee) tee->flush();
  return report;
}

}  // namespace dtr::core
