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
// `decode` replays a pcap capture offline; `analyze` recomputes the §3
// statistics from a released dataset.  Files ending in .dtz are the
// chunked DTZCHNK1 container (footnote 3 of the paper); analyze and
// decompress recognise it by its magic.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
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
                                      file per boundary)
              [--checkpoint-interval-hours H] (boundary spacing in
                                      simulated hours; default 168 = 1 week)
              [--resume-from FILE] (continue an interrupted campaign from
                                      a snapshot; outputs are byte-identical
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
              [--compress-chunk BYTES] (uncompressed chunk size; default
                                      262144; joins the snapshot fingerprint)
  decode      replay a pcap file through the offline decoder
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

telemetry (campaign and decode):
  --metrics-out PATH      write a JSON metrics snapshot after the run
  --metrics-interval S    sample every S simulated seconds: print a
                          metrics table to stderr and set the series
                          interval (deterministic: driven by event/frame
                          timestamps, not wall clock)
  --series-out PATH       write the metrics time series as JSONL (one
                          sample per interval; default interval 1 hour)
  --series-csv PATH       write the same series as wide CSV
  --log-level LEVEL       enable structured logs on stderr at
                          debug|info|warn|error (rate-limited per
                          simulated time; off when omitted)
  --flight-dump PATH      write the flight-recorder post-mortem (JSON,
                          "-" = stderr as text) after the run; written
                          automatically when the pipeline fails
  --flight-events N       per-thread flight ring capacity (default 1024)
  --profile-out PATH      (campaign) profile the run: per-thread time
                          attribution (working/queue_wait/park/lock_wait),
                          wall-clock RSS/allocation/occupancy sampling and
                          checkpoint costs; writes the bottleneck report
                          as JSON to PATH ("-" = stdout) and a summary
                          table to stderr.  Wall-clock only: output bytes
                          (XML, series, checkpoints) are unchanged
)";
  return 2;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Create `path` and fill it through `fill(std::ostream&)`.  The file is
/// closed before it is judged: a full disk often surfaces only in the last
/// flush.
template <class Fill>
bool write_to(const std::string& path, Fill&& fill) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  fill(out);
  out.close();
  return !out.fail();
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

/// Store XML text to `path`: a .dtz path receives the chunked container.
bool store_dataset(const std::string& path, std::string_view xml) {
  const bool compressed = ends_with(path, ".dtz");
  std::uint64_t stored = xml.size();
  const bool ok = write_to(path, [&](std::ostream& out) {
    if (!compressed) {
      out << xml;
      return;
    }
    xmlio::CompressingOstream z(out, dtz_config());
    z << xml;
    z.writer().finish();
    stored = z.writer().compressed_bytes();
  });
  if (ok) {
    std::cout << "wrote " << path << " (" << with_thousands(stored)
              << (compressed ? " bytes, chunked-compressed)\n" : " bytes)\n");
  }
  return ok;
}

/// Periodic metrics emitter driven by *simulated* time: call tick() with
/// each event/frame timestamp and a snapshot table goes to stderr whenever
/// another interval has elapsed.  Deterministic — wall clock never read.
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

/// Write the registry's JSON snapshot to `path` ("-" = stdout).
bool write_metrics_json(const obs::Registry& registry,
                        const std::string& path) {
  obs::Snapshot snap = registry.snapshot();
  if (path == "-") {
    snap.render_json(std::cout);
    return true;
  }
  if (!write_to(path, [&](std::ostream& out) { snap.render_json(out); })) {
    return false;
  }
  std::cout << "wrote " << path << " (metrics snapshot)\n";
  return true;
}

/// The telemetry channels behind the shared campaign/decode flags
/// (--series-out/--series-csv/--log-level/--flight-dump/--flight-events).
struct Telemetry {
  obs::StreamSink log_sink{std::cerr};
  obs::Logger logger;
  bool log_enabled = false;
  std::unique_ptr<obs::FlightRecorder> flight;
  std::unique_ptr<obs::TimeSeriesRecorder> series;
  std::string series_path;
  std::string series_csv_path;
  std::string flight_path;

  obs::Logger* log() { return log_enabled ? &logger : nullptr; }
};

/// Parse the telemetry flags; returns a usage error code or 0.
/// `always_flight` forces a flight recorder even without --flight-dump so
/// a failing run can still produce a post-mortem.
int setup_telemetry(const cli::Args& args, const obs::Registry& registry,
                    double metrics_interval, bool always_flight,
                    Telemetry& t) {
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
    t.flight = std::make_unique<obs::FlightRecorder>(
        args.get_u64("flight-events", 1024));
  }
  if (!t.series_path.empty() || !t.series_csv_path.empty()) {
    obs::TimeSeriesOptions options;
    options.interval = metrics_interval > 0.0
                           ? static_cast<SimTime>(metrics_interval * kSecond)
                           : kHour;
    t.series = std::make_unique<obs::TimeSeriesRecorder>(registry, options);
  }
  return 0;
}

/// Write the recorded series to the requested JSONL/CSV paths.
bool write_series_files(const Telemetry& t) {
  if (!t.series) return true;
  if (!t.series_path.empty()) {
    if (!write_to(t.series_path,
                  [&](std::ostream& out) { t.series->write_jsonl(out); })) {
      return false;
    }
    std::cout << "wrote " << t.series_path << " ("
              << t.series->samples().size() << " samples)\n";
  }
  if (!t.series_csv_path.empty()) {
    if (!write_to(t.series_csv_path,
                  [&](std::ostream& out) { t.series->write_csv(out); })) {
      return false;
    }
    std::cout << "wrote " << t.series_csv_path << " ("
              << t.series->samples().size() << " samples)\n";
  }
  return true;
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
  if (!write_to(t.flight_path,
                [&](std::ostream& out) { t.flight->dump_json(out, kAll); })) {
    return false;
  }
  std::cout << "wrote " << t.flight_path << " (flight dump)\n";
  return true;
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
  cfg.campaign.seed = args.get_u64("seed", 42);
  cfg.campaign.population.client_count =
      static_cast<std::uint32_t>(args.get_u64("clients", 2000));
  cfg.campaign.catalog.file_count =
      static_cast<std::uint32_t>(args.get_u64("files", 20000));
  cfg.campaign.duration = args.get_u64("hours", 48) * kHour;
  cfg.workers = args.get_u64("workers", 0);
  const std::string xml_path = args.get("xml");
  // A .dtz path always means the chunked container.
  cfg.compress = args.has("compress") || ends_with(xml_path, ".dtz");
  cfg.compress_chunk_bytes =
      args.get_u64("compress-chunk", xmlio::kDefaultChunkBytes);
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

  std::ostringstream xml;
  if (!xml_path.empty()) cfg.xml_out = &xml;

  obs::Registry registry;
  std::string metrics_path = args.get("metrics-out");
  double metrics_interval = args.get_f64("metrics-interval", 0.0);
  Telemetry telemetry;
  // A campaign always carries a flight recorder: a mid-run pipeline
  // failure must leave a post-mortem even when --flight-dump was not
  // anticipated.
  if (int rc = setup_telemetry(args, registry, metrics_interval,
                               /*always_flight=*/true, telemetry)) {
    return rc;
  }
  std::unique_ptr<MetricsTicker> ticker;
  if (!metrics_path.empty() || metrics_interval > 0.0 ||
      telemetry.series != nullptr) {
    cfg.metrics = &registry;
  }
  if (metrics_interval > 0.0) {
    ticker = std::make_unique<MetricsTicker>(registry, metrics_interval);
    // Chain onto the anonymised-event stream: event times are simulated
    // capture times, which keeps periodic emission deterministic.
    cfg.extra_sink = [&ticker](const anon::AnonEvent& ev) {
      ticker->tick(ev.time);
    };
  }
  cfg.log = telemetry.log();
  cfg.flight = telemetry.flight.get();
  cfg.series = telemetry.series.get();

  // --profile-out: attribute thread time and sample resources.  Purely
  // wall-clock observers — the profiled run's XML/series/checkpoint bytes
  // match an unprofiled run's.
  const std::string profile_path = args.get("profile-out");
  std::unique_ptr<obs::Profiler> profiler;
  std::unique_ptr<obs::ResourceSampler> sampler;
  if (!profile_path.empty()) {
    cfg.metrics = &registry;  // the occupancy gauges the sampler tracks
    profiler = std::make_unique<obs::Profiler>();
    cfg.profiler = profiler.get();
    obs::ResourceSamplerOptions opts;
    opts.counters = {"pipeline.frames", "pipeline.messages", "anon.events"};
    opts.gauges = {{"capture.occupancy", "capture.buffer.occupancy"},
                   {"pipeline.queue.merge", ""},
                   {"pipeline.queue.writer", ""}};
    sampler = std::make_unique<obs::ResourceSampler>(&registry, opts);
  }
  if (telemetry.log_enabled && cfg.metrics != nullptr) {
    telemetry.logger.bind_metrics(registry);
  }

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

  if (!xml_path.empty()) {
    // The buffer already holds the final bytes: the chunked container when
    // compressing, plain XML otherwise.
    if (!write_to(xml_path, [&](std::ostream& out) { out << xml.view(); })) {
      std::cerr << "cannot write " << xml_path << "\n";
      return 1;
    }
    std::cout << "wrote " << xml_path << " ("
              << with_thousands(xml.view().size())
              << (cfg.compress ? " bytes, chunked-compressed)\n" : " bytes)\n");
  }
  if (!cfg.pcap_path.empty()) {
    std::cout << "wrote " << cfg.pcap_path << "\n";
  }
  if (!metrics_path.empty() && !write_metrics_json(registry, metrics_path)) {
    std::cerr << "cannot write " << metrics_path << "\n";
    return 1;
  }
  if (!write_series_files(telemetry)) {
    std::cerr << "cannot write series files\n";
    return 1;
  }
  if (!telemetry.flight_path.empty() && !dump_flight(telemetry)) {
    std::cerr << "cannot write " << telemetry.flight_path << "\n";
    return 1;
  }
  if (profiler) {
    const obs::BottleneckReport bottleneck =
        obs::build_bottleneck_report(*profiler, sampler.get());
    bottleneck.render_text(std::cerr);
    if (profile_path == "-") {
      bottleneck.render_json(std::cout);
      std::cout << "\n";
    } else {
      if (!write_to(profile_path, [&](std::ostream& out) {
            bottleneck.render_json(out);
            out << "\n";
          })) {
        std::cerr << "cannot write " << profile_path << "\n";
        return 1;
      }
      std::cout << "wrote " << profile_path << " (bottleneck report)\n";
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
  const std::uint32_t server_ip = args.get_ipv4("server-ip", 0xC0A80001);
  const auto server_port =
      static_cast<std::uint16_t>(args.get_u64("server-port", 4665));
  net::PcapReader reader(pcap_path);
  if (!reader.ok()) {
    std::cerr << "cannot read " << pcap_path << "\n";
    return 1;
  }

  anon::DirectClientTable clients;
  anon::BucketedFileIdStore files;
  anon::Anonymiser anonymiser(clients, files);
  analysis::CampaignStats stats;
  std::ostringstream xml;
  std::unique_ptr<xmlio::DatasetWriter> writer;
  std::string xml_path = args.get("xml");
  if (!xml_path.empty()) writer = std::make_unique<xmlio::DatasetWriter>(xml);

  decode::FrameDecoder decoder(
      server_ip, server_port, [&](decode::DecodedMessage&& msg) {
        bool from_client = msg.dst_ip == server_ip;
        anon::AnonEvent ev = anonymiser.anonymise(
            msg.time, from_client ? msg.src_ip : msg.dst_ip, msg.message);
        stats.consume(ev);
        if (writer) writer->write(ev);
      });

  obs::Registry registry;
  std::string metrics_path = args.get("metrics-out");
  double metrics_interval = args.get_f64("metrics-interval", 0.0);
  Telemetry telemetry;
  if (int rc = setup_telemetry(args, registry, metrics_interval,
                               /*always_flight=*/false, telemetry)) {
    return rc;
  }
  std::unique_ptr<MetricsTicker> ticker;
  if (!metrics_path.empty() || metrics_interval > 0.0 ||
      telemetry.series != nullptr) {
    decoder.bind_metrics(registry);
    anonymiser.bind_metrics(registry);
    stats.bind_metrics(registry);
    if (telemetry.log_enabled) telemetry.logger.bind_metrics(registry);
  }
  decoder.bind_telemetry(telemetry.log(), telemetry.flight.get());
  anonymiser.bind_telemetry(telemetry.log());
  if (metrics_interval > 0.0) {
    ticker = std::make_unique<MetricsTicker>(registry, metrics_interval);
  }

  std::uint64_t frames = 0;
  SimTime last = 0;
  while (auto rec = reader.next()) {
    // Offline replay is single-threaded, so sampling straight off the frame
    // timestamp is already exact — no pipeline to quiesce.
    while (telemetry.series && telemetry.series->due(rec->timestamp)) {
      telemetry.series->sample();
    }
    decoder.push(sim::TimedFrame{rec->timestamp, rec->data});
    last = rec->timestamp;
    ++frames;
    if (ticker) ticker->tick(rec->timestamp);
  }
  decoder.finish(last);
  if (writer) writer->finish();
  if (telemetry.series) telemetry.series->finish(last);
  if (telemetry.log_enabled) telemetry.logger.emit_suppressed_summary(last);

  const decode::DecodeStats& d = decoder.stats();
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
  print_dataset_summary(stats);
  if (!xml_path.empty() && !store_dataset(xml_path, xml.view())) {
    std::cerr << "cannot write " << xml_path << "\n";
    return 1;
  }
  if (!metrics_path.empty() && !write_metrics_json(registry, metrics_path)) {
    std::cerr << "cannot write " << metrics_path << "\n";
    return 1;
  }
  if (!write_series_files(telemetry)) {
    std::cerr << "cannot write series files\n";
    return 1;
  }
  if (!telemetry.flight_path.empty() && !dump_flight(telemetry)) {
    std::cerr << "cannot write " << telemetry.flight_path << "\n";
    return 1;
  }
  return 0;
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
  const std::string out_path = ends_with(path, ".dtz")
                                   ? path.substr(0, path.size() - 4)
                                   : path + ".out";
  const std::string part_path = out_path + ".part";
  std::uint64_t bytes = 0;
  const bool written = write_to(part_path, [&](std::ostream& out) {
    bytes = copy_blocks(*input.stream().rdbuf(), out);
  });
  if (!input.finish()) {
    std::remove(part_path.c_str());
    std::cerr << path << " is not a valid compressed file\n";
    return 1;
  }
  if (!written || std::rename(part_path.c_str(), out_path.c_str()) != 0) {
    std::remove(part_path.c_str());
    return 1;
  }
  std::printf("%s -> %s (%s bytes)\n", path.c_str(), out_path.c_str(),
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
  const std::string out_path = path + ".dtz";
  std::uint64_t original = 0;
  std::uint64_t compressed = 0;
  const bool written = write_to(out_path, [&](std::ostream& out) {
    xmlio::CompressingOstream z(out, dtz_config());
    copy_blocks(*in.rdbuf(), z);
    z.writer().finish();
    original = z.writer().uncompressed_bytes();
    compressed = z.writer().compressed_bytes();
  });
  if (!written) {
    std::remove(out_path.c_str());
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::printf("%s -> %s (%.1f%%)\n", path.c_str(), out_path.c_str(),
              original == 0 ? 100.0
                            : 100.0 * static_cast<double>(compressed) /
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
