#include "workloads.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <iostream>
#include <sstream>

#include "sim/scenario.hpp"
#include "xmlio/chunked.hpp"

namespace donkeybench {

namespace fs = std::filesystem;
using namespace dtr;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

/// Seed of every workload's eDonkey traffic.  At paper calibration a seed
/// decides how many collectors, scanners and popular files a campaign
/// holds, and with them its size and message mix: over seeds 1-6 the
/// operator's campaign wrote 109-344 bytes per message and ran at 23k-56k
/// messages/s.  Metrics that move that much between seeds cannot hold a
/// bound of a few percent, so the traffic stays fixed and --seed varies
/// what leaves the work unchanged (see campaign_spec()).
constexpr std::uint64_t kTrafficSeed = 42;

bool full(const Options& opt) { return opt.scale == Scale::kFull; }

// Pinned outputs of the seed-42 traffic: the serial pass's dataset
// (pipeline workloads), the reference campaign's dataset and its snapshot
// count (campaign_flash) and the `donkeytrace analyze` report
// (analyze_readback).  A change that moves one of these changed what the
// program computes.
struct Pin {
  const char* workload;
  Scale scale;
  const char* sha256;
  std::uint64_t messages;
  std::size_t snapshots;  // campaign_flash only
};
constexpr Pin kPins[] = {
    {"mirror_bg", Scale::kFull,
     "6bf55d383578653a0a44dc09bbed4c483e1a9c8d1a438c4888716184a56452ef", 42794, 0},
    {"mirror_bg", Scale::kSmoke,
     "5a59a9e900474f6bf6429f51dc13b7f2cc673a45957d74ad81d770d7671e6f1f", 1511, 0},
    {"udp_dense", Scale::kFull,
     "d44ecd10e50bb5f942413d0a5e9140d98948f1a00b2ff0e11d01da76e8b4b4d8", 51694, 0},
    {"udp_dense", Scale::kSmoke,
     "dacd0f00b3f51c0f873a54abb9f828fd34212188a407e702c5e1834a1da94b8f", 11949, 0},
    {"campaign_flash", Scale::kFull,
     "0e55ebd9f27e4c31e1e17db27d974bcec0e3388ec52436888b1f8bed745d3d20", 122203, 11},
    {"campaign_flash", Scale::kSmoke,
     "09554e161d6211f39ce90967197b094a80fcfa06a0cdb92dc515b65454527002", 7222, 17},
    {"analyze_readback", Scale::kFull,
     "004e1fdd8df4f423ad164e04c504332e9141f13ca3ba192c739ef10386a1cee2", 122203, 0},
    {"analyze_readback", Scale::kSmoke,
     "81c2ec6bd1c6ebc9ca6ac8b2ff80c0601e50f124ee2072bed46ce01b6096fa12", 7222, 0},
};

const Pin& pin_of(const Options& opt) {
  for (const Pin& pin : kPins) {
    if (opt.workload == pin.workload && opt.scale == pin.scale) return pin;
  }
  return kPins[0];  // unreachable: every workload and scale is listed
}

/// The "messages" row of what `donkeytrace campaign` or `analyze` prints;
/// 0 when absent.
std::uint64_t parse_messages(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(' ');
    if (first == std::string::npos || line.compare(first, 9, "messages ") != 0) {
      continue;
    }
    std::uint64_t value = 0;
    bool digits = false;
    for (char c : line.substr(first + 9)) {
      if (c == ' ') continue;  // the CLI groups thousands with spaces
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        digits = false;
        break;
      }
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
      digits = true;
    }
    if (digits) return value;
  }
  return 0;
}

double per_msg(std::uint64_t bytes, std::uint64_t messages) {
  return static_cast<double>(bytes) / static_cast<double>(messages);
}

std::string num(double v) {
  std::ostringstream s;
  s << v;
  return s.str();
}

/// The in-process pipeline under test, and the one place that picks it:
/// the serial CapturePipeline for workers == 0 (the CLI's default), the
/// ParallelCapturePipeline otherwise.
class Pipeline {
 public:
  Pipeline(std::size_t workers, std::ostream* xml, obs::Registry* metrics,
           obs::Profiler* profiler) {
    if (workers == 0) {
      core::PipelineConfig cfg;
      cfg.xml_out = xml;
      cfg.metrics = metrics;
      cfg.profiler = profiler;
      serial_ = std::make_unique<core::CapturePipeline>(cfg);
    } else {
      core::ParallelPipelineConfig cfg;
      cfg.workers = workers;
      cfg.xml_out = xml;
      cfg.metrics = metrics;
      cfg.profiler = profiler;
      parallel_ = std::make_unique<core::ParallelCapturePipeline>(cfg);
    }
  }

  void push(const sim::TimedFrame& frame) {
    if (serial_) {
      serial_->push(frame);
    } else {
      parallel_->push(frame);
    }
  }

  core::PipelineResult finish() {
    return serial_ ? serial_->finish() : parallel_->finish();
  }

 private:
  std::unique_ptr<core::CapturePipeline> serial_;
  std::unique_ptr<core::ParallelCapturePipeline> parallel_;
};

// -- pipeline workloads: mirror_bg, udp_dense --------------------------------

/// A timed pass run in a forked copy of the harness.  Every pass then
/// starts from the same heap, and the copy's peak RSS growth is the pass's
/// own: pipeline threads, queues, tables and the dataset buffer, which is
/// reserved at the reference size so it never holds two copies.
struct IsolatedPass {
  double seconds = 0;
  double rss_growth_mb = 0;
  std::uint64_t messages = 0;
  std::string sha256;
};

std::optional<IsolatedPass> run_isolated_pass(const Corpus& corpus,
                                              std::size_t workers,
                                              std::size_t xml_bytes) {
  const std::optional<std::string> text = run_forked([&] {
    const double rss0 = rss_mb();
    const PassResult p = run_pass(corpus, workers, nullptr, nullptr, xml_bytes);
    std::ostringstream report;
    report.precision(17);
    report << p.seconds << ' ' << peak_rss_mb() - rss0 << ' ' << p.messages
           << ' ' << (p.error.empty() ? sha256_hex(p.xml) : "failed");
    return report.str();
  });
  if (!text) return std::nullopt;
  IsolatedPass pass;
  std::istringstream in(*text);
  in >> pass.seconds >> pass.rss_growth_mb >> pass.messages >> pass.sha256;
  if (!in || !(pass.seconds > 0)) return std::nullopt;
  return pass;
}

void timed_pipeline(const Options& opt, RunResult& out) {
  const CampaignSpec spec = campaign_spec(opt);
  Corpus corpus;
  for (int i = 0; i < kSetups; ++i) {
    const std::size_t previous_frames = corpus.frames.size();
    const std::uint64_t previous_bytes = corpus.bytes;
    corpus = Corpus{};  // free the last copy before timing the next
    const auto t0 = Clock::now();
    corpus = build_corpus(spec);
    out.metrics.add("setup_s", "s", seconds_since(t0));
    if (i > 0) {
      out.checks.expect(corpus.frames.size() == previous_frames &&
                            corpus.bytes == previous_bytes,
                        "every set-up builds the same corpus");
    }
  }
  out.params.emplace_back("frames", std::to_string(corpus.frames.size()));
  out.params.emplace_back("corpus_bytes", std::to_string(corpus.bytes));

  // Warm-up: the serial pass is the reference every timed pass must match.
  std::string ref_sha;
  std::uint64_t ref_messages = 0;
  std::size_t ref_bytes = 0;
  {
    const PassResult ref = run_pass(corpus, 0);
    out.checks.expect(ref.error.empty() && ref.messages > 0,
                      "the reference serial pass completes with messages");
    ref_sha = sha256_hex(ref.xml);
    ref_messages = ref.messages;
    ref_bytes = ref.xml.size();
  }
  check_pin(opt, ref_sha, ref_messages, out);
  out.params.emplace_back("messages", std::to_string(ref_messages));
  out.params.emplace_back("xml_bytes", std::to_string(ref_bytes));

  const auto t0 = Clock::now();
  for (int pair = 0; pair < 2 || seconds_since(t0) < opt.seconds; ++pair) {
    const std::size_t order[2] = {pair % 2 == 0 ? 0 : opt.workers,
                                  pair % 2 == 0 ? opt.workers : 0};
    for (std::size_t workers : order) {
      const std::optional<IsolatedPass> pass =
          run_isolated_pass(corpus, workers, ref_bytes);
      if (!out.checks.expect(pass && pass->messages == ref_messages &&
                                 pass->sha256 == ref_sha,
                             workers == 0
                                 ? "serial pass writes the reference dataset"
                                 : "parallel pass writes the reference dataset")) {
        continue;
      }
      const double rate = static_cast<double>(pass->messages) / pass->seconds;
      if (workers == 0) {
        out.metrics.add("serial_msgs_per_s", "1/s", rate);
      } else {
        out.metrics.add("msgs_per_s", "1/s", rate);
        out.metrics.add("peak_rss_mb", "MB", pass->rss_growth_mb);
      }
    }
    out.metrics.add("bytes_per_msg", "B", per_msg(ref_bytes, ref_messages));
  }
}

// -- operator workloads: campaign_flash, analyze_readback ---------------------

/// `donkeytrace campaign` running the workload's campaign.  Every size and
/// rate is spelled out from campaign_spec(), so the CLI and the traced
/// run's in-process CampaignRunner run the same campaign.
std::vector<std::string> campaign_argv(const Options& opt,
                                       std::size_t workers) {
  const CampaignSpec spec = campaign_spec(opt);
  const sim::CampaignConfig& c = spec.campaign;
  return {opt.cli,
          "campaign",
          "--seed",
          std::to_string(c.seed),
          "--clients",
          std::to_string(c.population.client_count),
          "--files",
          std::to_string(c.catalog.file_count),
          "--hours",
          std::to_string(c.duration / kHour),
          "--scenario",
          "flash_crowd",
          "--background",
          "--syn-per-minute",
          num(spec.background->syn_per_minute),
          "--tcp-quiet",
          num(spec.background->data_rate_quiet),
          "--tcp-burst",
          num(spec.background->data_rate_burst),
          "--workers",
          std::to_string(workers)};
}

std::vector<std::string> campaign_argv(const Options& opt, std::size_t workers,
                                       std::initializer_list<std::string> more) {
  std::vector<std::string> argv = campaign_argv(opt, workers);
  argv.insert(argv.end(), more);
  return argv;
}

void timed_campaign(const Options& opt, RunResult& out) {
  const fs::path dir = opt.workdir;
  const std::uint64_t need = full(opt) ? 2'000'000'000ULL : 200'000'000ULL;
  if (!out.checks.expect(free_disk_bytes(dir.string()) >= need,
                         "enough free disk in the work directory for the "
                         "snapshots")) {
    return;
  }
  const SimTime interval = runner_config(opt, 0).checkpoint_interval;
  const std::string hours = num(static_cast<double>(interval) / kHour);
  const std::string stdout_path = (dir / "stdout.txt").string();
  const std::size_t pinned_snapshots = pin_of(opt).snapshots;

  // Set-up: the serial, uncompressed, unsnapshotted campaign is the
  // reference every timed run must reproduce.
  std::string ref_xml;
  std::uint64_t messages = 0;
  const std::string ref_path = (dir / "reference.xml").string();
  for (int i = 0; i < kSetups; ++i) {
    const ChildRun run =
        run_child(campaign_argv(opt, 0, {"--xml", ref_path}), stdout_path);
    out.metrics.add("setup_s", "s", run.wall_s);
    const std::string xml = read_file(ref_path);
    const std::uint64_t m = parse_messages(read_file(stdout_path));
    out.checks.expect(run.exit_code == 0 && m > 0 && !xml.empty(),
                      "the reference campaign completes");
    if (i == 0) {
      ref_xml = xml;
      messages = m;
    } else {
      out.checks.expect(xml == ref_xml && m == messages,
                        "every set-up writes the same reference dataset");
    }
    fs::remove(ref_path);
  }
  check_pin(opt, sha256_hex(ref_xml), messages, out);
  out.params.emplace_back("messages", std::to_string(messages));
  out.params.emplace_back("xml_bytes", std::to_string(ref_xml.size()));

  // Timed: the operator's command, compressed and checkpointed, parallel
  // and serial in alternating order.
  std::string kept_container;  // the first parallel run's, for resume
  fs::path kept_snapshots;
  const auto t0 = Clock::now();
  for (int pair = 0; pair < 1 || seconds_since(t0) < opt.seconds; ++pair) {
    const std::size_t order[2] = {pair % 2 == 0 ? opt.workers : 0,
                                  pair % 2 == 0 ? 0 : opt.workers};
    for (std::size_t workers : order) {
      const std::string tag = std::to_string(pair) + "-" + std::to_string(workers);
      const std::string ckpt = (dir / ("ckpt-" + tag)).string();
      const std::string xml_path = (dir / ("out-" + tag + ".dtz")).string();
      const ChildRun run = run_child(
          campaign_argv(opt, workers,
                        {"--compress", "--checkpoint-interval-hours", hours,
                         "--checkpoint-dir", ckpt, "--xml", xml_path}),
          stdout_path);
      const std::string container = read_file(xml_path);
      const std::uint64_t m = parse_messages(read_file(stdout_path));
      const auto expanded = xmlio::chunked_decompress(BytesView(
          reinterpret_cast<const std::uint8_t*>(container.data()),
          container.size()));
      out.checks.expect(
          run.exit_code == 0 && m == messages && expanded &&
              expanded->size() == ref_xml.size() &&
              std::memcmp(expanded->data(), ref_xml.data(), ref_xml.size()) == 0,
          "the compressed, checkpointed campaign decompresses to the "
          "reference dataset");

      // Snapshots: one per boundary, consecutive from the first, none
      // empty — a failed or zero-byte write leaves a gap or a hole.
      const std::vector<fs::path> snaps = snapshots_in(ckpt);
      bool well_formed = snaps.size() == pinned_snapshots;
      for (std::size_t k = 0; k < snaps.size(); ++k) {
        std::error_code ec;
        const std::uint64_t size = fs::file_size(snaps[k], ec);
        well_formed = well_formed && !ec && size > 0 &&
                      snaps[k].filename() ==
                          core::checkpoint_file_name((k + 1) * interval);
      }
      out.checks.expect(well_formed,
                        "one non-empty snapshot per boundary, as many as "
                        "pinned");

      const double rate = static_cast<double>(messages) / run.wall_s;
      if (workers == 0) {
        out.metrics.add("serial_msgs_per_s", "1/s", rate);
      } else {
        out.metrics.add("msgs_per_s", "1/s", rate);
        out.metrics.add("peak_rss_mb", "MB", run.peak_rss_mb);
        out.metrics.add("bytes_per_msg", "B", per_msg(container.size(), messages));
      }
      if (workers != 0 && kept_container.empty()) {
        kept_container = container;
        kept_snapshots = ckpt;
      } else {
        out.checks.expect(container == kept_container || kept_container.empty(),
                          "every run writes the same container");
        fs::remove_all(ckpt);
      }
      fs::remove(xml_path);
    }
  }

  // Kill-and-resume: restart a parallel run from the snapshot the seed
  // picks; the container must come out byte-identical.
  const std::vector<fs::path> snaps = snapshots_in(kept_snapshots);
  out.params.emplace_back("snapshots", std::to_string(snaps.size()));
  if (out.checks.expect(!snaps.empty(), "a parallel run left snapshots")) {
    const fs::path& from = snaps[opt.seed % snaps.size()];
    out.params.emplace_back("resumed_from", from.filename().string());
    const std::string resumed = (dir / "resumed.dtz").string();
    const ChildRun run = run_child(
        campaign_argv(opt, opt.workers, {"--compress", "--resume-from",
                                         from.string(), "--xml", resumed}),
        stdout_path);
    out.checks.expect(run.exit_code == 0 && read_file(resumed) == kept_container,
                      "a campaign resumed from a snapshot writes the "
                      "uninterrupted container");
    fs::remove(resumed);
  }
  fs::remove_all(kept_snapshots);
}

void timed_analyze(const Options& opt, RunResult& out) {
  const fs::path dir = opt.workdir;
  const std::string stdout_path = (dir / "stdout.txt").string();

  // Set-up: the operator's campaign writes its compressed dataset.
  const std::string data = (dir / "dataset.dtz").string();
  std::string container;
  std::uint64_t messages = 0;
  for (int i = 0; i < kSetups; ++i) {
    const ChildRun run = run_child(
        campaign_argv(opt, opt.workers, {"--compress", "--xml", data}),
        stdout_path);
    out.metrics.add("setup_s", "s", run.wall_s);
    const std::string bytes = read_file(data);
    const std::uint64_t m = parse_messages(read_file(stdout_path));
    out.checks.expect(run.exit_code == 0 && m > 0 && !bytes.empty(),
                      "the dataset campaign completes");
    if (i == 0) {
      container = bytes;
      messages = m;
    } else {
      out.checks.expect(bytes == container && m == messages,
                        "every set-up writes the same container");
    }
  }
  out.params.emplace_back("messages", std::to_string(messages));
  out.params.emplace_back("container_bytes", std::to_string(container.size()));

  std::string first_report;
  const auto t0 = Clock::now();
  for (int i = 0; i < 3 || seconds_since(t0) < opt.seconds; ++i) {
    const ChildRun run = run_child({opt.cli, "analyze", data}, stdout_path);
    const std::string report = read_file(stdout_path);
    if (i == 0) {
      first_report = report;
      check_pin(opt, sha256_hex(report), parse_messages(report), out);
    }
    out.checks.expect(run.exit_code == 0 && report == first_report &&
                          parse_messages(report) == messages,
                      "analyze succeeds with the same report every run");
    // analyze has no parallel mode: its one path is both metrics.
    const double rate = static_cast<double>(messages) / run.wall_s;
    out.metrics.add("msgs_per_s", "1/s", rate);
    out.metrics.add("serial_msgs_per_s", "1/s", rate);
    out.metrics.add("peak_rss_mb", "MB", run.peak_rss_mb);
    out.metrics.add("bytes_per_msg", "B", per_msg(container.size(), messages));
  }
  fs::remove(data);
}

}  // namespace

void check_pin(const Options& opt, const std::string& sha,
               std::uint64_t messages, RunResult& out) {
  std::cerr << opt.workload << ": output sha256 " << sha << ", " << messages
            << " messages\n";
  const Pin& pin = pin_of(opt);
  out.checks.expect(sha == pin.sha256 && messages == pin.messages,
                    "output matches the pinned digest and message count");
}

CampaignSpec campaign_spec(const Options& opt) {
  CampaignSpec spec;
  sim::CampaignConfig& c = spec.campaign;
  c.seed = kTrafficSeed;
  if (opt.workload == "mirror_bg") {
    // The pipeline_throughput corpus: the eDonkey campaign under a much
    // larger §2.2 stream of background TCP/SYN frames, which the decoder
    // classifies and skips.  --seed drives the background stream.
    if (full(opt)) {
      c.duration = 24 * kHour;
      c.population.client_count = 800;
      c.catalog.file_count = 2'000;
      c.catalog.vocabulary = 500;
      c.population.collector_share_max = 2'000;
      c.population.scanner_ask_max = 1'500;
    } else {
      c.duration = 2 * kHour;
      c.population.client_count = 40;
      c.catalog.file_count = 300;
      c.catalog.vocabulary = 120;
      c.flash_crowd_count = 1;
    }
    sim::BackgroundConfig bg;
    bg.seed = opt.seed;
    bg.syn_per_minute = full(opt) ? 600.0 : 60.0;
    bg.data_rate_quiet = full(opt) ? 1.0 : 0.5;
    bg.data_rate_burst = full(opt) ? 10.0 : 5.0;
    bg.data_frame_bytes = 400;
    spec.background = bg;
  } else if (opt.workload == "udp_dense") {
    // UDP only, nearly one message per frame: per-message work dominates.
    // Collectors share up to 3,000 files and scanners ask up to 5,000.  At
    // 3,000 clients a set-up took 8.5 s and the harness peaked at 900 MB,
    // so the population is 1,000.
    c.duration = (full(opt) ? 3 : 1) * kHour;
    c.population.client_count = full(opt) ? 1'000 : 200;
    c.catalog.file_count = full(opt) ? 10'000 : 1'000;
    c.population.collector_share_max = 3'000;
    c.population.scanner_ask_max = 5'000;
  } else {
    // campaign_flash and analyze_readback: the operator's campaign.  At
    // full scale it is `donkeytrace campaign --background --scenario
    // flash_crowd` at the CLI's defaults: 2,000 clients, 20,000 files,
    // 48 hours, the CLI's background rates and background seed.
    c.duration = (full(opt) ? 48 : 2) * kHour;
    c.population.client_count = full(opt) ? 2'000 : 100;
    c.catalog.file_count = full(opt) ? 20'000 : 1'000;
    c.scenario = sim::scenario_preset("flash_crowd");
    sim::BackgroundConfig bg;
    bg.syn_per_minute = 60.0;
    bg.data_rate_quiet = 1.3;
    bg.data_rate_burst = 30.0;
    spec.background = bg;
  }
  return spec;
}

core::RunnerConfig runner_config(const Options& opt, std::size_t workers) {
  const CampaignSpec spec = campaign_spec(opt);
  core::RunnerConfig cfg;
  cfg.campaign = spec.campaign;
  cfg.background = spec.background;
  cfg.workers = workers;
  // Long sessions keep a campaign running for days past its nominal
  // duration (the operator's 48 h one to 132 h), so boundaries are
  // simulated half-days.
  cfg.checkpoint_interval = (full(opt) ? 12 : 3) * kHour;
  return cfg;
}

std::vector<fs::path> snapshots_in(const fs::path& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".ckpt") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

Corpus build_corpus(const CampaignSpec& spec) {
  Corpus corpus;
  sim::CampaignSimulator simulator(spec.campaign);
  std::vector<sim::TimedFrame> frames;
  simulator.run([&](const sim::TimedFrame& f) { frames.push_back(f); });
  if (!spec.background) {
    corpus.frames = std::move(frames);
  } else {
    // Merged the way CampaignRunner merges them.
    sim::BackgroundConfig bg = *spec.background;
    bg.duration = spec.campaign.duration;
    bg.server_ip = spec.campaign.server_ip;
    sim::BackgroundTraffic background(bg);
    if (const sim::Scenario* sc = simulator.scenario()) {
      background.set_envelope([sc](SimTime t) { return sc->background_boost(t); });
    }
    std::optional<sim::TimedFrame> next = background.next();
    corpus.frames.reserve(frames.size());
    for (sim::TimedFrame& f : frames) {
      while (next && next->time <= f.time) {
        corpus.frames.push_back(std::move(*next));
        next = background.next();
      }
      corpus.frames.push_back(std::move(f));
    }
    while (next) {
      corpus.frames.push_back(std::move(*next));
      next = background.next();
    }
  }
  for (const sim::TimedFrame& f : corpus.frames) corpus.bytes += f.bytes.size();
  return corpus;
}

PassResult run_pass(const Corpus& corpus, std::size_t workers,
                    obs::Registry* metrics, obs::Profiler* profiler,
                    std::size_t xml_reserve) {
  PassResult pass;
  pass.xml.reserve(xml_reserve);
  StringSinkBuf buf(pass.xml);
  std::ostream xml(&buf);
  const std::uint64_t allocs0 = obs::allocation_count();
  const auto t0 = Clock::now();
  {
    Pipeline pipeline(workers, &xml, metrics, profiler);
    for (const sim::TimedFrame& frame : corpus.frames) pipeline.push(frame);
    const core::PipelineResult result = pipeline.finish();
    pass.messages = result.anonymised_events;
    pass.error = result.error;
  }
  pass.seconds = seconds_since(t0);
  pass.allocs = obs::allocation_count() - allocs0;
  return pass;
}

void run_timed(const Options& opt, RunResult& out) {
  if (opt.workload == "campaign_flash") {
    timed_campaign(opt, out);
  } else if (opt.workload == "analyze_readback") {
    timed_analyze(opt, out);
  } else {
    timed_pipeline(opt, out);
  }
}

}  // namespace donkeybench
