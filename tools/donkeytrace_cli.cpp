// donkeytrace — the command-line face of the library.
//
//   donkeytrace campaign  --seed 1 --clients 2000 --files 20000
//                         --hours 48 --xml out.xml.dtz --pcap out.pcap
//   donkeytrace decode    --pcap out.pcap --xml replay.xml
//   donkeytrace analyze   --xml out.xml.dtz
//   donkeytrace compress  file.xml            (-> file.xml.dtz)
//   donkeytrace decompress file.xml.dtz       (-> file.xml)
//
// `campaign` runs the full measurement (Figure 1) at the requested scale;
// `decode` replays a pcap capture offline through the same capture
// pipeline; `analyze` recomputes the §3 statistics from a released
// dataset.  Every dataset streams to PATH.part and is renamed to PATH only
// when the run succeeds.  Files ending in .dtz are the chunked DTZCHNK1
// container (footnote 3 of the paper); analyze and decompress recognise it
// by its magic.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/campaign_stats.hpp"
#include "analysis/powerlaw.hpp"
#include "analysis/report.hpp"
#include "cli_args.hpp"
#include "core/donkeytrace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/resource.hpp"
#include "obs/snapshot.hpp"
#include "obs/timeseries.hpp"
#include "xmlio/chunked.hpp"

// Opt this binary into global allocation counting (one TU per binary): the
// --profile-out resource trajectory reports real operator-new totals
// instead of zeros.
#include "obs/alloc_counting.hpp"

namespace {

using namespace dtr;

int usage() {
  std::cerr <<
      R"(usage: donkeytrace <command> [options]

commands:
  campaign    simulate a capture campaign end to end
              --seed N --clients N --files N --hours H
              --xml PATH[.dtz] --pcap PATH --background
              [--workers N] (decode worker threads; default 0 = 1;
                                      never changes output, joins the
                                      snapshot fingerprint)
              [--checkpoint-dir DIR] (periodic resumable snapshots, one
                                      file per boundary, beside a
                                      dataset.journal of the dataset)
              [--checkpoint-interval-hours H] (boundary spacing in
                                      simulated hours; default 168 = 1 week)
              [--resume-from FILE] (continue an interrupted campaign from
                                      a snapshot and the dataset.journal
                                      beside it; outputs are byte-identical
                                      to an uninterrupted run)
              [--scenario NAME] (hostile-regime preset: steady, flash_crowd,
                                      query_storm, polluter_flood, churn_wave,
                                      restart_under_load; joins the snapshot
                                      fingerprint, prints a figure-style
                                      scenario summary after the run)
              [--compress] (stream the dataset through the chunked
                                      compressor: --xml receives the DTZCHNK1
                                      container; implied by a .dtz path;
                                      decompress restores the XML)
  decode      replay a pcap file through the capture pipeline (decode,
              anonymise, write) that campaign runs
              --pcap PATH [--xml PATH[.dtz]]
              [--server-ip A.B.C.D] [--server-port P]
  analyze     recompute the paper's statistics from a dataset
              --xml PATH[.dtz]  (or positional path)
  compress    compress a file into the DTZCHNK1 container
              (positional path, adds .dtz)
  decompress  expand a DTZCHNK1 container (positional path, strips .dtz);
              refuses anything else
  jsoncheck   validate JSON (or per-line JSONL) artifacts
              (positional paths; .jsonl files are checked line by line)

Datasets (campaign and decode --xml, compress, decompress) stream to
PATH.part while they are written and are renamed to PATH only when the run
succeeds; a failed run leaves neither file.

telemetry (campaign and decode; PATH "-" = stdout for --metrics-out,
--series-out, --series-csv and --profile-out):
  --metrics-out PATH      write a JSON metrics snapshot after the run
  --metrics-interval S    sample every S simulated seconds: print a
                          progress table of the live metrics to stderr
                          and set the series interval (ticks follow event
                          timestamps, but the tables are read while
                          workers still count, so their values vary run
                          to run; the series is the deterministic record)
  --series-out PATH       write the metrics time series as JSONL (one
                          sample per interval; default interval 1 hour)
  --series-csv PATH       write the same series as wide CSV
  --log-level LEVEL       enable structured logs on stderr at
                          debug|info|warn|error (rate-limited per
                          simulated time; off when omitted)
  --flight-dump PATH      write the flight-recorder post-mortem (JSON,
                          "-" = stderr as text) after the run; written
                          automatically when the pipeline fails
  --profile-out PATH      (campaign) profile the run: per-thread time
                          attribution (working/queue_wait/park/lock_wait),
                          wall-clock RSS/allocation/occupancy sampling and
                          checkpoint costs; writes the bottleneck report
                          as JSON to PATH and a summary table to
                          stderr.  Wall-clock only: output bytes
                          (XML, series, checkpoints) are unchanged
)";
  return 2;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Create `path` ("-" = stdout), fill it through `fill(std::ostream&)` and
/// report "wrote PATH (what)" (not for stdout), or "cannot write PATH" on
/// stderr.  The file is closed before it is judged: a full disk often
/// surfaces only in the last flush.
template <class Fill>
bool write_to(const std::string& path, const std::string& what, Fill&& fill) {
  if (path == "-") {
    fill(std::cout);
    if (std::cout.flush()) return true;
  } else if (std::ofstream out(path, std::ios::binary); out) {
    fill(out);
    out.close();
    if (!out.fail()) {
      std::cout << "wrote " << path << " (" << what << ")\n";
      return true;
    }
  }
  std::cerr << "cannot write " << path << "\n";
  return false;
}

std::optional<Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return data;
}

/// Copy `from` to `to` one 64 KiB block at a time; returns the bytes copied.
std::uint64_t copy_blocks(std::streambuf& from, std::ostream& to) {
  std::vector<char> block(64 * 1024);
  std::uint64_t bytes = 0;
  for (std::streamsize n;
       (n = from.sgetn(block.data(),
                       static_cast<std::streamsize>(block.size()))) > 0;) {
    to.write(block.data(), n);
    bytes += static_cast<std::uint64_t>(n);
  }
  return bytes;
}

/// The .dtz writers' compressor: the chunked container at the default grid.
xmlio::ChunkedWriterConfig dtz_config() {
  xmlio::ChunkedWriterConfig config;
  config.threads = xmlio::kCompressThreads;
  return config;
}

/// A dataset file opened for one streaming read.  The chunked container
/// (detected by magic) is decompressed chunk by chunk as it is read;
/// anything else is read as plain XML straight from the file.
class DatasetInput {
 public:
  /// False when the file cannot be opened.
  bool open(const std::string& path) {
    file_.open(path, std::ios::binary);
    if (!file_) return false;
    char magic[sizeof xmlio::kChunkedMagic] = {};
    file_.read(magic, sizeof magic);
    const bool chunked = xmlio::is_chunked_container(
        BytesView(reinterpret_cast<const std::uint8_t*>(magic),
                  static_cast<std::size_t>(file_.gcount())));
    file_.clear();
    file_.seekg(0);
    if (chunked) chunked_ = std::make_unique<xmlio::DecompressingIstream>(file_);
    return true;
  }

  /// True when the file is a chunked container.
  [[nodiscard]] bool compressed() const { return chunked_ != nullptr; }

  /// The dataset's bytes, ending early when a chunked container breaks off.
  std::istream& stream() {
    return chunked_ ? static_cast<std::istream&>(*chunked_) : file_;
  }

  /// After the read: true unless a chunked container failed to verify
  /// whole — every frame through the end frame, including those past the
  /// last byte the read consumed.
  bool finish() { return chunked_ ? chunked_->drain() : true; }

 private:
  std::ifstream file_;
  std::unique_ptr<xmlio::DecompressingIstream> chunked_;
};

/// A dataset file streamed to `PATH.part` and renamed to `PATH` by
/// commit(), so `PATH` appears only whole: a run that fails after open(),
/// or a file that does not close cleanly, leaves neither `PATH` nor
/// `PATH.part`.  With `compress` the stream feeds the chunked container
/// at the default grid.
class DatasetOutput {
 public:
  explicit DatasetOutput(std::string path)
      : path_(std::move(path)), part_(path_ + ".part") {}
  ~DatasetOutput() {
    if (file_.is_open()) std::remove(part_.c_str());  // never committed
  }

  /// The stream to fill, or null (after "cannot write PATH") when the
  /// file cannot be created.
  std::ostream* open(bool compress) {
    file_.open(part_, std::ios::binary);
    if (!file_.is_open()) {
      std::cerr << "cannot write " << path_ << "\n";
      return nullptr;
    }
    if (!compress) return &file_;
    zip_ = std::make_unique<xmlio::CompressingOstream>(file_, dtz_config());
    return zip_.get();
  }

  /// Finish the container, close the file and give it its final name;
  /// false (after "cannot write PATH") when any write failed.
  bool commit() {
    if (zip_) zip_->writer().finish();
    const std::streamoff end = file_.tellp();
    file_.close();
    if (end < 0 || file_.fail() ||
        std::rename(part_.c_str(), path_.c_str()) != 0) {
      std::remove(part_.c_str());
      std::cerr << "cannot write " << path_ << "\n";
      return false;
    }
    bytes_ = static_cast<std::uint64_t>(end);
    return true;
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Bytes in the file (valid after commit()).
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  std::string path_;
  std::string part_;
  std::ofstream file_;
  std::unique_ptr<xmlio::CompressingOstream> zip_;
  std::uint64_t bytes_ = 0;
};

/// Commit a dataset a command streamed and report "wrote PATH (N bytes)".
bool commit_dataset(DatasetOutput& out, bool compressed) {
  if (!out.commit()) return false;
  std::cout << "wrote " << out.path() << " (" << with_thousands(out.bytes())
            << (compressed ? " bytes, chunked-compressed)\n" : " bytes)\n");
  return true;
}

/// Periodic metrics emitter driven by *simulated* time: call tick() with
/// each event/frame timestamp and a snapshot table goes to stderr whenever
/// another interval has elapsed.  Ticks fall at the same simulated times in
/// every run, but the table is read while pipeline workers still count, so
/// it is a progress view whose values vary run to run; the series
/// (--series-out) is the deterministic record.
class MetricsTicker {
 public:
  MetricsTicker(const obs::Registry& registry, double interval_s)
      : registry_(registry),
        interval_(static_cast<SimTime>(interval_s * kSecond)) {
    if (interval_ == 0) interval_ = kSecond;
    next_ = interval_;
  }

  void tick(SimTime now) {
    while (now >= next_) {
      std::cerr << "[metrics @ " << to_seconds(next_) << "s]\n";
      registry_.snapshot().render_table(std::cerr);
      next_ += interval_;
    }
  }

 private:
  const obs::Registry& registry_;
  SimTime interval_;
  SimTime next_ = 0;
};

/// The telemetry channels behind the shared campaign/decode flags
/// (--metrics-out/--metrics-interval/--series-out/--series-csv/--log-level/
/// --flight-dump).
struct Telemetry {
  obs::Registry registry;
  std::string metrics_path;
  std::unique_ptr<MetricsTicker> ticker;
  obs::StreamSink log_sink{std::cerr};
  obs::Logger logger;
  bool log_enabled = false;
  std::unique_ptr<obs::FlightRecorder> flight;
  std::unique_ptr<obs::TimeSeriesRecorder> series;
  std::string series_path;
  std::string series_csv_path;
  std::string flight_path;

  obs::Logger* log() { return log_enabled ? &logger : nullptr; }

  /// Hand the channels to a RunnerConfig or ParallelPipelineConfig: the
  /// registry when an output reads it (or `cfg` already has it), the logger
  /// bound to it, and the --metrics-interval ticker
  /// chained onto the anonymised-event stream (event times are simulated
  /// capture times; the tables it prints are progress views, not a
  /// deterministic record).
  template <class Config>
  void attach(Config& cfg) {
    if (!metrics_path.empty() || ticker || series) cfg.metrics = &registry;
    if (ticker) {
      cfg.extra_sink = [this](const anon::AnonEvent& ev) {
        ticker->tick(ev.time);
      };
    }
    if (log_enabled && cfg.metrics != nullptr) {
      logger.bind_metrics(*cfg.metrics);
    }
    cfg.log = log();
    cfg.flight = flight.get();
  }
};

/// Parse the telemetry flags; returns a usage error code or 0.
/// `always_flight` forces a flight recorder even without --flight-dump so
/// a failing run can still produce a post-mortem.
int setup_telemetry(const cli::Args& args, bool always_flight, Telemetry& t) {
  t.metrics_path = args.get("metrics-out");
  const double metrics_interval = args.get_f64("metrics-interval", 0.0);
  if (metrics_interval > 0.0) {
    t.ticker = std::make_unique<MetricsTicker>(t.registry, metrics_interval);
  }
  t.series_path = args.get("series-out");
  t.series_csv_path = args.get("series-csv");
  t.flight_path = args.get("flight-dump");
  std::string level_name = args.get("log-level");
  if (!level_name.empty()) {
    obs::LogLevel level;
    if (!obs::parse_log_level(level_name, level)) {
      std::cerr << "unknown log level: " << level_name << "\n";
      return 2;
    }
    t.logger.set_level(level);
    t.logger.set_sink(&t.log_sink);
    t.log_enabled = true;
  }
  if (always_flight || !t.flight_path.empty()) {
    t.flight = std::make_unique<obs::FlightRecorder>();
  }
  if (!t.series_path.empty() || !t.series_csv_path.empty()) {
    t.series = std::make_unique<obs::TimeSeriesRecorder>(
        t.registry, metrics_interval > 0.0
                        ? static_cast<SimTime>(metrics_interval * kSecond)
                        : kHour);
  }
  return 0;
}

/// Dump the flight recorder: JSON to the --flight-dump path, or text to
/// stderr when the path is "-" (or when dumping a failure post-mortem
/// without an explicit path).
bool dump_flight(const Telemetry& t) {
  if (!t.flight) return true;
  // Dump every surviving event (the rings bound the total): a mid-run
  // failure keeps draining frames afterwards, so a tail-truncated dump
  // could show only post-failure traffic and miss the error itself.
  constexpr auto kAll = static_cast<std::size_t>(-1);
  if (t.flight_path.empty() || t.flight_path == "-") {
    t.flight->dump_text(std::cerr, kAll);
    return true;
  }
  return write_to(t.flight_path, "flight dump", [&](std::ostream& out) {
    t.flight->dump_json(out, kAll);
  });
}

/// Write the metrics snapshot, the series files (any of them "-" = stdout)
/// and the flight dump that were asked for; false on the first failure.
bool write_telemetry(const Telemetry& t) {
  if (!t.metrics_path.empty() &&
      !write_to(t.metrics_path, "metrics snapshot", [&](std::ostream& out) {
        t.registry.snapshot().render_json(out);
      })) {
    return false;
  }
  if (t.series) {
    const std::string samples =
        std::to_string(t.series->samples().size()) + " samples";
    if (!t.series_path.empty() &&
        !write_to(t.series_path, samples,
                  [&](std::ostream& out) { t.series->write_jsonl(out); })) {
      return false;
    }
    if (!t.series_csv_path.empty() &&
        !write_to(t.series_csv_path, samples,
                  [&](std::ostream& out) { t.series->write_csv(out); })) {
      return false;
    }
  }
  return t.flight_path.empty() || dump_flight(t);
}

void print_dataset_summary(const analysis::CampaignStats& stats) {
  analysis::print_table(
      std::cout, "dataset",
      {
          {"messages", with_thousands(stats.messages())},
          {"queries / answers", with_thousands(stats.queries()) + " / " +
                                    with_thousands(stats.answers())},
          {"distinct clients", with_thousands(stats.distinct_clients())},
          {"distinct fileIDs", with_thousands(stats.distinct_files())},
          {"provider relations", with_thousands(stats.provider_relations())},
          {"asker relations", with_thousands(stats.asker_relations())},
      });
}

void print_figures(const analysis::CampaignStats& stats) {
  struct Figure {
    const char* name;
    CountHistogram h;
  };
  Figure figures[] = {
      {"Fig 4: clients providing each file", stats.providers_per_file()},
      {"Fig 5: clients asking for each file", stats.askers_per_file()},
      {"Fig 6: files provided per client", stats.files_per_provider()},
      {"Fig 7: files asked per client", stats.files_per_asker()},
      {"Fig 8: file sizes (KB)", stats.size_distribution()},
  };
  for (const Figure& fig : figures) {
    if (fig.h.empty()) continue;
    std::cout << "\n== " << fig.name << " ==\n";
    analysis::print_loglog_plot(std::cout, fig.h, 64, 14);
    std::cout << analysis::describe_fit(analysis::fit_power_law_auto(fig.h))
              << "\n";
  }
}

int cmd_campaign(const cli::Args& args) {
  core::RunnerConfig cfg;
  cfg.campaign.seed = args.get_uint<std::uint64_t>("seed", 42);
  cfg.campaign.population.client_count =
      args.get_uint<std::uint32_t>("clients", 2000);
  cfg.campaign.catalog.file_count =
      args.get_uint<std::uint32_t>("files", 20000);
  cfg.campaign.duration = args.get_uint<std::uint64_t>("hours", 48) * kHour;
  cfg.workers = args.get_uint<std::size_t>("workers", 0);
  const std::string xml_path = args.get("xml");
  // A .dtz path always means the chunked container.
  cfg.compress = args.has("compress") || ends_with(xml_path, ".dtz");
  cfg.pcap_path = args.get("pcap");
  cfg.checkpoint_dir = args.get("checkpoint-dir");
  cfg.resume_from = args.get("resume-from");
  const double ckpt_hours = args.get_f64("checkpoint-interval-hours", 0.0);
  if (ckpt_hours > 0.0) {
    cfg.checkpoint_interval = static_cast<SimTime>(ckpt_hours * kHour);
  }
  if (args.has("background")) {
    sim::BackgroundConfig bg;
    bg.syn_per_minute = args.get_f64("syn-per-minute", 60.0);
    bg.data_rate_quiet = args.get_f64("tcp-quiet", 1.3);
    bg.data_rate_burst = args.get_f64("tcp-burst", 30.0);
    cfg.background = bg;
  }
  const std::string scenario_name = args.get("scenario");
  if (!scenario_name.empty()) {
    const auto preset = sim::scenario_preset(scenario_name);
    if (!preset) {
      std::cerr << "campaign: unknown scenario '" << scenario_name
                << "' (known:";
      for (const std::string& name : sim::scenario_names()) {
        std::cerr << " " << name;
      }
      std::cerr << ")\n";
      return 2;
    }
    cfg.campaign.scenario = *preset;
  }

  Telemetry telemetry;
  // A campaign always carries a flight recorder: a mid-run pipeline
  // failure must leave a post-mortem even when --flight-dump was not
  // anticipated.
  if (int rc = setup_telemetry(args, /*always_flight=*/true, telemetry)) {
    return rc;
  }

  // --profile-out: attribute thread time and sample resources.  Purely
  // wall-clock observers — the profiled run's XML/series/checkpoint bytes
  // match an unprofiled run's.
  const std::string profile_path = args.get("profile-out");
  std::unique_ptr<obs::Profiler> profiler;
  std::unique_ptr<obs::ResourceSampler> sampler;
  if (!profile_path.empty()) {
    cfg.metrics = &telemetry.registry;  // the gauges the sampler tracks
    profiler = std::make_unique<obs::Profiler>();
    cfg.profiler = profiler.get();
    obs::ResourceSamplerOptions opts;
    opts.counters = {"pipeline.frames", "pipeline.messages", "anon.events"};
    opts.gauges = {{"capture.occupancy", "capture.buffer.occupancy"},
                   {"pipeline.queue.merge", ""},
                   {"pipeline.queue.writer", ""}};
    sampler = std::make_unique<obs::ResourceSampler>(cfg.metrics, opts);
  }
  telemetry.attach(cfg);
  cfg.series = telemetry.series.get();

  // The runner compresses itself, so the file takes its output as is.
  DatasetOutput dataset(xml_path);
  if (!xml_path.empty() && !(cfg.xml_out = dataset.open(false))) return 1;

  core::CampaignRunner runner(cfg);
  if (sampler) sampler->start();
  core::CampaignReport report = runner.run();
  if (sampler) sampler->stop();
  if (telemetry.log_enabled) {
    telemetry.logger.emit_suppressed_summary(cfg.campaign.duration);
  }

  if (!report.pipeline.ok()) {
    std::cerr << "pipeline failed: " << report.pipeline.error << "\n";
    dump_flight(telemetry);
    return 1;
  }

  analysis::print_table(
      std::cout, "campaign",
      {
          {"frames mirrored",
           with_thousands(report.frames_captured + report.frames_lost)},
          {"frames lost", with_thousands(report.frames_lost)},
          {"messages decoded", with_thousands(report.pipeline.decode.decoded)},
          {"undecoded", with_thousands(report.pipeline.decode.undecoded())},
          {"distinct clients", with_thousands(report.pipeline.distinct_clients)},
          {"distinct fileIDs", with_thousands(report.pipeline.distinct_files)},
      });
  print_dataset_summary(runner.stats());
  if (const auto scenario_summary = core::build_scenario_summary(
          runner.simulator().scenario(), report)) {
    std::cout << "\n";
    analysis::print_scenario_summary(std::cout, *scenario_summary);
  }

  if (!xml_path.empty() && !commit_dataset(dataset, cfg.compress)) return 1;
  if (!cfg.pcap_path.empty()) {
    std::cout << "wrote " << cfg.pcap_path << "\n";
  }
  if (!write_telemetry(telemetry)) return 1;
  if (profiler) {
    const obs::BottleneckReport bottleneck =
        obs::build_bottleneck_report(*profiler, sampler.get());
    bottleneck.render_text(std::cerr);
    if (!write_to(profile_path, "bottleneck report", [&](std::ostream& out) {
          bottleneck.render_json(out);
          out << "\n";
        })) {
      return 1;
    }
  }
  return 0;
}

int cmd_decode(const cli::Args& args) {
  std::string pcap_path = args.get("pcap");
  if (pcap_path.empty() && !args.positional().empty()) {
    pcap_path = args.positional().front();
  }
  if (pcap_path.empty()) {
    std::cerr << "decode: --pcap required\n";
    return 2;
  }
  core::ParallelPipelineConfig cfg;
  cfg.server_ip = args.get_ipv4("server-ip", cfg.server_ip);
  cfg.server_port =
      args.get_uint<std::uint16_t>("server-port", cfg.server_port);
  const std::string xml_path = args.get("xml");
  Telemetry telemetry;
  if (int rc = setup_telemetry(args, /*always_flight=*/false, telemetry)) {
    return rc;
  }
  telemetry.attach(cfg);
  net::PcapReader reader(pcap_path);
  if (!reader.ok()) {
    std::cerr << "cannot read " << pcap_path << "\n";
    return 1;
  }
  const bool compressed = ends_with(xml_path, ".dtz");
  DatasetOutput dataset(xml_path);
  if (!xml_path.empty() && !(cfg.xml_out = dataset.open(compressed))) {
    return 1;
  }

  core::ParallelCapturePipeline pipeline(cfg);
  std::uint64_t frames = 0;
  SimTime last = 0;
  while (auto rec = reader.next()) {
    if (telemetry.series && telemetry.series->due(rec->timestamp)) {
      // Quiesce first, as the campaign runner does, so every sample counts
      // exactly the frames before its boundary.
      pipeline.flush();
      do {
        telemetry.series->sample();
      } while (telemetry.series->due(rec->timestamp));
    }
    pipeline.push(sim::TimedFrame{rec->timestamp, rec->data});
    last = rec->timestamp;
    ++frames;
  }
  const core::PipelineResult result = pipeline.finish();
  if (telemetry.series) telemetry.series->finish(last);
  if (telemetry.log_enabled) telemetry.logger.emit_suppressed_summary(last);
  if (!result.ok()) {
    std::cerr << "pipeline failed: " << result.error << "\n";
    dump_flight(telemetry);
    return 1;
  }

  const decode::DecodeStats& d = result.decode;
  analysis::print_table(
      std::cout, "decode",
      {
          {"frames", with_thousands(frames)},
          {"UDP packets", with_thousands(d.udp_packets)},
          {"TCP packets (skipped)", with_thousands(d.tcp_packets)},
          {"eDonkey messages", with_thousands(d.edonkey_messages)},
          {"decoded", with_thousands(d.decoded)},
          {"undecoded", with_thousands(d.undecoded())},
      });
  print_dataset_summary(pipeline.stats());
  if (!xml_path.empty() && !commit_dataset(dataset, compressed)) return 1;
  return write_telemetry(telemetry) ? 0 : 1;
}

int cmd_analyze(const cli::Args& args) {
  std::string path = args.get("xml");
  if (path.empty() && !args.positional().empty()) {
    path = args.positional().front();
  }
  if (path.empty()) {
    std::cerr << "analyze: dataset path required\n";
    return 2;
  }
  DatasetInput input;
  if (!input.open(path)) {
    std::cerr << "cannot load " << path << "\n";
    return 1;
  }
  // One pass: the validator checks the formal spec (docs/DATASET_SPEC.md)
  // on the same events the statistics consume.  Its verdict applies once
  // the file has read back whole: a dataset that violates its invariants
  // yields meaningless statistics.
  xmlio::DatasetReader reader(input.stream());
  xmlio::DatasetValidator validator;
  analysis::CampaignStats stats;
  while (auto ev = reader.next()) {
    validator.consume(*ev);
    stats.consume(*ev);
  }
  if (!input.finish()) {
    std::cerr << "cannot load " << path << "\n";
    return 1;
  }
  const auto violations = validator.findings(reader);
  if (!violations.empty()) {
    std::cerr << "dataset violates the specification (" << violations.size()
              << " finding(s)); first: [" << violations.front().rule << "] "
              << violations.front().message << " at event "
              << violations.front().event_index << "\n";
    if (!args.has("force")) return 1;
    std::cerr << "--force given: analyzing anyway\n";
  }
  if (!reader.ok()) {
    std::cerr << "malformed dataset: " << reader.error() << "\n";
    return 1;
  }
  print_dataset_summary(stats);
  print_figures(stats);
  return 0;
}

/// Expand the chunked container `path` next to itself, one chunk at a
/// time.  The output appears under its final name only once the input has
/// verified whole.
int decompress_file(const std::string& path) {
  DatasetInput input;
  if (!input.open(path)) {
    std::cerr << "cannot read " << path << "\n";
    return 1;
  }
  if (!input.compressed()) {
    std::cerr << path << " is not a DTZCHNK1 container\n";
    return 1;
  }
  DatasetOutput out(ends_with(path, ".dtz") ? path.substr(0, path.size() - 4)
                                            : path + ".out");
  std::ostream* sink = out.open(/*compress=*/false);
  if (sink == nullptr) return 1;
  const std::uint64_t bytes = copy_blocks(*input.stream().rdbuf(), *sink);
  if (!input.finish()) {
    std::cerr << path << " is not a valid compressed file\n";
    return 1;
  }
  if (!out.commit()) return 1;
  std::printf("%s -> %s (%s bytes)\n", path.c_str(), out.path().c_str(),
              with_thousands(bytes).c_str());
  return 0;
}

/// Compress `path` into the chunked container `path`.dtz, reading it one
/// block at a time.
int compress_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 1;
  }
  DatasetOutput out(path + ".dtz");
  std::ostream* sink = out.open(/*compress=*/true);
  if (sink == nullptr) return 1;
  const std::uint64_t original = copy_blocks(*in.rdbuf(), *sink);
  if (!out.commit()) return 1;
  std::printf("%s -> %s (%.1f%%)\n", path.c_str(), out.path().c_str(),
              original == 0 ? 100.0
                            : 100.0 * static_cast<double>(out.bytes()) /
                                  static_cast<double>(original));
  return 0;
}

int cmd_compress(const cli::Args& args, bool compress) {
  if (args.positional().empty()) {
    std::cerr << (compress ? "compress" : "decompress") << ": path required\n";
    return 2;
  }
  const std::string& path = args.positional().front();
  return compress ? compress_file(path) : decompress_file(path);
}

int cmd_jsoncheck(const cli::Args& args) {
  if (args.positional().empty()) {
    std::cerr << "jsoncheck: at least one path required\n";
    return 2;
  }
  int rc = 0;
  for (const std::string& path : args.positional()) {
    auto data = read_file(path);
    if (!data) {
      std::cerr << path << ": cannot read\n";
      rc = 1;
      continue;
    }
    std::string_view text(reinterpret_cast<const char*>(data->data()),
                          data->size());
    const bool jsonl = ends_with(path, ".jsonl");
    const bool valid =
        jsonl ? obs::jsonl_valid(text) : obs::json_valid(text);
    if (valid) {
      std::cout << path << ": valid " << (jsonl ? "JSONL" : "JSON") << "\n";
    } else {
      std::cerr << path << ": INVALID " << (jsonl ? "JSONL" : "JSON") << "\n";
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  dtr::cli::Args args(argc, argv);

  int rc;
  try {
    if (args.command() == "campaign") {
      rc = cmd_campaign(args);
    } else if (args.command() == "decode") {
      rc = cmd_decode(args);
    } else if (args.command() == "analyze") {
      rc = cmd_analyze(args);
    } else if (args.command() == "compress") {
      rc = cmd_compress(args, true);
    } else if (args.command() == "decompress") {
      rc = cmd_compress(args, false);
    } else if (args.command() == "jsoncheck") {
      rc = cmd_jsoncheck(args);
    } else {
      return usage();
    }
  } catch (const dtr::cli::InvalidValue& e) {
    // Every typed option is read before a command starts its work.
    std::cerr << e.what() << "\n";
    return 2;
  }

  for (const std::string& name : args.unused()) {
    std::cerr << "warning: unknown option --" << name << "\n";
  }
  return rc;
}
