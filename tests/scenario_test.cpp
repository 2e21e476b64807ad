// Adversarial & churn scenario suite: differential regression tests.
//
// Every registered hostile-regime preset (sim/scenario.hpp) is locked
// three ways: one and three pipeline workers produce byte-identical
// output under the scenario; a run killed at the storm peak and resumed
// from the snapshot reproduces the uninterrupted run's dataset bytes
// exactly (as does resuming from every other snapshot); and the XML plus
// the figure-style scenario summary are golden-pinned for flash_crowd and
// polluter_flood so scenario drift is a test failure, not a silent shift.
// The steady preset is held to a stricter contract: byte-identical to a
// run with no scenario configured at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "analysis/report.hpp"
#include "core/campaign_runner.hpp"
#include "hash/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/scenario.hpp"

namespace dtr {
namespace {

namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("scenario_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Bytes read_all(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

std::vector<fs::path> checkpoint_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Every engaged preset name (the registry minus steady).
std::vector<std::string> engaged_presets() {
  std::vector<std::string> names = sim::scenario_names();
  names.erase(std::remove(names.begin(), names.end(), "steady"), names.end());
  return names;
}

core::RunnerConfig small_config(std::uint64_t seed) {
  core::RunnerConfig cfg = core::RunnerConfig::tiny(seed);
  cfg.campaign.duration = 3 * kHour;
  cfg.campaign.population.client_count = 60;
  cfg.campaign.catalog.file_count = 400;
  // Bound the post-campaign tail: tiny()'s scanner budget (700 asks at a
  // 240 s think mean) lets a session run ~20 h past `duration`, which
  // multiplies the snapshot count in the checkpoint differentials below.
  cfg.campaign.population.scanner_ask_max = 80;
  cfg.campaign.population.casual_ask_max = 120;
  cfg.campaign.population.collector_share_max = 300;
  cfg.campaign.inter_ask_mean_s = 45.0;
  return cfg;
}

struct RunOptions {
  std::size_t workers = 0;
  bool background = true;  // storms lean on the MMPP envelope
  std::optional<sim::ScenarioConfig> scenario;
  std::optional<capture::KernelBufferConfig> buffer;
  std::string pcap_path;
  std::string checkpoint_dir;
  SimTime checkpoint_interval = kHour;
  std::string resume_from;
};

struct RunArtifacts {
  std::string xml;
  std::string series_jsonl;
  std::string summary;  // figure-style scenario summary text (empty: steady)
  Bytes pcap;
  core::CampaignReport report;
};

RunArtifacts run_campaign(std::uint64_t seed, const RunOptions& opt) {
  core::RunnerConfig cfg = small_config(seed);
  cfg.workers = opt.workers;
  cfg.campaign.scenario = opt.scenario;
  if (opt.buffer) cfg.buffer = *opt.buffer;
  cfg.pcap_path = opt.pcap_path;
  cfg.checkpoint_dir = opt.checkpoint_dir;
  cfg.checkpoint_interval = opt.checkpoint_interval;
  cfg.resume_from = opt.resume_from;
  if (opt.background) {
    sim::BackgroundConfig bg;
    bg.syn_per_minute = 30.0;
    bg.data_rate_quiet = 0.6;
    bg.data_rate_burst = 8.0;
    cfg.background = bg;
  }

  std::ostringstream xml;
  cfg.xml_out = &xml;
  obs::Registry registry;
  cfg.metrics = &registry;
  obs::TimeSeriesRecorder series(registry, 30 * kMinute);
  cfg.series = &series;

  core::CampaignRunner runner(cfg);
  RunArtifacts art;
  art.report = runner.run();
  art.xml = xml.str();
  {
    std::ostringstream out;
    series.write_jsonl(out);
    art.series_jsonl = out.str();
  }
  if (const auto summary = core::build_scenario_summary(
          runner.simulator().scenario(), art.report)) {
    art.summary = analysis::scenario_summary_text(*summary);
  }
  if (!opt.pcap_path.empty()) art.pcap = read_all(opt.pcap_path);
  return art;
}

/// Byte-compare two runs.  `compare_series` is off only for cross-worker-
/// count comparisons: batch shapes depend on how frames route to workers
/// (the pipeline.batch.frames histogram), so the series is not
/// byte-comparable across worker counts — the dataset bytes (XML, pcap),
/// the summary and every counter still are.
void expect_identical(const RunArtifacts& a, const RunArtifacts& b,
                      bool compare_series = true) {
  EXPECT_TRUE(a.report.pipeline.ok()) << a.report.pipeline.error;
  EXPECT_TRUE(b.report.pipeline.ok()) << b.report.pipeline.error;
  EXPECT_EQ(a.xml, b.xml);
  if (compare_series) {
    EXPECT_EQ(a.series_jsonl, b.series_jsonl);
  }
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.pcap, b.pcap);
  EXPECT_EQ(a.report.frames_captured, b.report.frames_captured);
  EXPECT_EQ(a.report.frames_lost, b.report.frames_lost);
  EXPECT_EQ(a.report.buffer_high_water, b.report.buffer_high_water);
  EXPECT_EQ(a.report.truth.total_messages(), b.report.truth.total_messages());
  EXPECT_EQ(a.report.truth.frames, b.report.truth.frames);
  EXPECT_EQ(a.report.truth.publishes, b.report.truth.publishes);
  EXPECT_EQ(a.report.truth.polluted_entries, b.report.truth.polluted_entries);
  EXPECT_EQ(a.report.pipeline.anonymised_events,
            b.report.pipeline.anonymised_events);
  EXPECT_EQ(a.report.pipeline.distinct_clients,
            b.report.pipeline.distinct_clients);
  EXPECT_EQ(a.report.pipeline.distinct_files,
            b.report.pipeline.distinct_files);
}

/// The preset's compiled envelope for the harness campaign — used to aim
/// the kill-at-peak snapshot.
sim::Scenario compiled(const sim::ScenarioConfig& preset, std::uint64_t seed) {
  const core::RunnerConfig cfg = small_config(seed);
  return sim::Scenario(preset, cfg.campaign.duration, cfg.campaign.seed);
}

// ---- registry ----------------------------------------------------------

TEST(ScenarioRegistry, EveryNameResolvesAndUnknownsDoNot) {
  const std::vector<std::string> names = sim::scenario_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names.front(), "steady");
  for (const std::string& name : names) {
    const auto preset = sim::scenario_preset(name);
    ASSERT_TRUE(preset.has_value()) << name;
    EXPECT_EQ(sim::scenario_kind_name(preset->kind), name);
    EXPECT_TRUE(preset->validate().empty()) << name;
  }
  EXPECT_FALSE(sim::scenario_preset("").has_value());
  EXPECT_FALSE(sim::scenario_preset("query-storm").has_value());
  EXPECT_FALSE(sim::scenario_preset("QUERY_STORM").has_value());
  EXPECT_FALSE(sim::scenario_preset("ddos").has_value());
}

TEST(ScenarioRegistry, FingerprintsAreDistinctAndSteadyIsZero) {
  EXPECT_EQ(sim::scenario_preset("steady")->fingerprint(), 0u);
  std::set<std::uint64_t> seen;
  for (const std::string& name : engaged_presets()) {
    const std::uint64_t fp = sim::scenario_preset(name)->fingerprint();
    EXPECT_NE(fp, 0u) << name;
    EXPECT_TRUE(seen.insert(fp).second) << name << " collides";
  }
  // The fingerprint covers the tuning fields, not just the kind.
  sim::ScenarioConfig tweaked = *sim::scenario_preset("query_storm");
  tweaked.background_boost *= 2.0;
  EXPECT_NE(tweaked.fingerprint(),
            sim::scenario_preset("query_storm")->fingerprint());
}

TEST(ScenarioRegistry, PhasesAreDisjointOrderedAndSized) {
  for (const std::string& name : engaged_presets()) {
    SCOPED_TRACE(name);
    const auto preset = *sim::scenario_preset(name);
    const sim::Scenario sc = compiled(preset, 42);
    ASSERT_TRUE(sc.engaged());
    const auto& phases = sc.phases();
    ASSERT_EQ(phases.size(), preset.waves);
    SimTime prev_end = 0;
    for (const auto& p : phases) {
      EXPECT_GE(p.begin, prev_end);
      EXPECT_GT(p.end, p.begin);
      EXPECT_LE(p.end, sc.duration());
      prev_end = p.end;
    }
    // The peak lands inside a wave, and the envelope agrees.
    const SimTime peak = sc.peak_time();
    EXPECT_GE(sc.phase_index(peak), 0);
    EXPECT_EQ(sc.arrival_boost(peak), preset.arrival_boost);
    EXPECT_EQ(sc.background_boost(peak), preset.background_boost);
    // Between-wave time (if any) is 1x.
    if (phases.front().begin > 0) {
      EXPECT_EQ(sc.phase_index(0), -1);
      EXPECT_EQ(sc.arrival_boost(0), 1.0);
      EXPECT_EQ(sc.think_scale(0), 1.0);
    }
  }
}

TEST(ScenarioRegistry, ArrivalSamplingConcentratesInWaves) {
  const auto preset = *sim::scenario_preset("churn_wave");
  const sim::Scenario sc = compiled(preset, 42);
  ASSERT_TRUE(sc.engaged());
  double wave_seconds = 0.0;
  for (const auto& p : sc.phases()) wave_seconds += to_seconds_f(p.end - p.begin);
  const double total_seconds = to_seconds_f(sc.duration());
  const double in_mass = wave_seconds * preset.arrival_boost;
  const double expected =
      in_mass / (in_mass + (total_seconds - wave_seconds) * 1.0);

  Rng rng(7);
  const int kDraws = 20'000;
  int inside = 0;
  for (int i = 0; i < kDraws; ++i) {
    const SimTime t = sc.sample_arrival(rng);
    ASSERT_LT(t, sc.duration());
    if (sc.phase_index(t) >= 0) ++inside;
  }
  const double got = static_cast<double>(inside) / kDraws;
  EXPECT_NEAR(got, expected, 0.02);
}

TEST(ScenarioRegistry, ValidateRejectsOutOfRangeConfigs) {
  sim::ScenarioConfig c = *sim::scenario_preset("flash_crowd");
  EXPECT_TRUE(c.validate().empty());
  c.waves = 0;
  EXPECT_FALSE(c.validate().empty());
  c = *sim::scenario_preset("flash_crowd");
  c.waves = 100'000;
  EXPECT_FALSE(c.validate().empty());
  c = *sim::scenario_preset("flash_crowd");
  c.wave_duty = 0.0;
  EXPECT_FALSE(c.validate().empty());
  c.wave_duty = 1.5;
  EXPECT_FALSE(c.validate().empty());
  c = *sim::scenario_preset("flash_crowd");
  c.arrival_boost = -3.0;
  EXPECT_FALSE(c.validate().empty());
  c.arrival_boost = 1e9;
  EXPECT_FALSE(c.validate().empty());
  c = *sim::scenario_preset("flash_crowd");
  c.think_scale = 0.0;
  EXPECT_FALSE(c.validate().empty());
  c = *sim::scenario_preset("polluter_flood");
  c.popular_target_k = 0;
  EXPECT_FALSE(c.validate().empty());
  // Steady ignores the envelope fields entirely.
  c = sim::ScenarioConfig{};
  c.arrival_boost = 1e30;
  EXPECT_TRUE(c.validate().empty());
}

// ---- differential: one worker == three workers ------------------------

TEST(ScenarioDifferential, OneWorkerEqualsThreeForEveryPreset) {
  for (const std::string& name : sim::scenario_names()) {
    SCOPED_TRACE(name);
    RunOptions one_worker;
    one_worker.scenario = sim::scenario_preset(name);
    const RunArtifacts a = run_campaign(21, one_worker);

    RunOptions parallel = one_worker;
    parallel.workers = 3;
    const RunArtifacts b = run_campaign(21, parallel);
    expect_identical(a, b, /*compare_series=*/false);
  }
}

// ---- differential: kill at the storm peak, resume, compare bytes -------

TEST(ScenarioDifferential, KillAtPeakResumeIsByteIdentical) {
  for (const std::string& name : engaged_presets()) {
    SCOPED_TRACE(name);
    const fs::path dir = scratch_dir("peak_" + name);
    const auto preset = *sim::scenario_preset(name);
    // Checkpoint boundaries at multiples of the peak time: the FIRST
    // snapshot is written exactly at the hottest moment of the regime —
    // resuming from it is "the process died mid-storm".
    const SimTime peak = compiled(preset, 23).peak_time();
    ASSERT_GT(peak, 0u);

    RunOptions plain;
    plain.scenario = preset;
    plain.pcap_path = (dir / "plain.pcap").string();
    const RunArtifacts baseline = run_campaign(23, plain);

    RunOptions checkpointed = plain;
    checkpointed.pcap_path = (dir / "ckpt.pcap").string();
    checkpointed.checkpoint_dir = (dir / "snaps").string();
    checkpointed.checkpoint_interval = peak;
    const RunArtifacts with_ckpt = run_campaign(23, checkpointed);
    expect_identical(baseline, with_ckpt);

    const std::vector<fs::path> snaps = checkpoint_files(dir / "snaps");
    ASSERT_FALSE(snaps.empty());
    ASSERT_EQ(snaps.front().filename().string(),
              core::checkpoint_file_name(peak));

    const fs::path resumed_pcap = dir / "resumed_peak.pcap";
    fs::copy_file(checkpointed.pcap_path, resumed_pcap,
                  fs::copy_options::overwrite_existing);
    RunOptions resume = plain;
    resume.pcap_path = resumed_pcap.string();
    resume.resume_from = snaps.front().string();
    const RunArtifacts resumed = run_campaign(23, resume);
    expect_identical(baseline, resumed);
  }
}

// The full resume sweep: under a storm preset, resuming from EVERY
// snapshot an hourly-checkpointed run wrote reproduces the uninterrupted
// run byte for byte (KillAtPeak above aims one snapshot exactly at the
// hottest instant; this one covers all the ordinary boundaries).
TEST(ScenarioDifferential, ResumeFromEverySnapshotUnderStorm) {
  for (const std::string& name : engaged_presets()) {
    SCOPED_TRACE(name);
    const fs::path dir = scratch_dir("sweep_" + name);
    RunOptions plain;
    plain.scenario = sim::scenario_preset(name);
    plain.pcap_path = (dir / "plain.pcap").string();
    const RunArtifacts baseline = run_campaign(23, plain);

    RunOptions checkpointed = plain;
    checkpointed.pcap_path = (dir / "ckpt.pcap").string();
    checkpointed.checkpoint_dir = (dir / "snaps").string();
    const RunArtifacts with_ckpt = run_campaign(23, checkpointed);
    expect_identical(baseline, with_ckpt);

    const std::vector<fs::path> snaps = checkpoint_files(dir / "snaps");
    ASSERT_GE(snaps.size(), 2u);  // a 3 h campaign, hourly boundaries
    for (const fs::path& snap : snaps) {
      SCOPED_TRACE(snap.filename().string());
      const fs::path resumed_pcap =
          dir / ("resumed_" + snap.stem().string() + ".pcap");
      fs::copy_file(checkpointed.pcap_path, resumed_pcap,
                    fs::copy_options::overwrite_existing);
      RunOptions resume = plain;
      resume.pcap_path = resumed_pcap.string();
      resume.resume_from = snap.string();
      const RunArtifacts resumed = run_campaign(23, resume);
      expect_identical(baseline, resumed);
    }
  }
}

// A storm snapshot refuses to resume as a steady campaign (and vice
// versa): the scenario participates in the config fingerprint.
TEST(ScenarioDifferential, ScenarioMismatchIsRejected) {
  const fs::path dir = scratch_dir("mismatch");
  RunOptions checkpointed;
  checkpointed.scenario = sim::scenario_preset("query_storm");
  checkpointed.checkpoint_dir = (dir / "snaps").string();
  const RunArtifacts art = run_campaign(24, checkpointed);
  ASSERT_TRUE(art.report.pipeline.ok()) << art.report.pipeline.error;
  const std::vector<fs::path> snaps = checkpoint_files(dir / "snaps");
  ASSERT_FALSE(snaps.empty());

  for (const char* other : {"steady", "polluter_flood"}) {
    SCOPED_TRACE(other);
    RunOptions resume;
    resume.scenario = sim::scenario_preset(other);
    resume.resume_from = snaps.front().string();
    const RunArtifacts rejected = run_campaign(24, resume);
    EXPECT_FALSE(rejected.report.pipeline.ok());
    EXPECT_NE(rejected.report.pipeline.error.find("scenario"),
              std::string::npos)
        << rejected.report.pipeline.error;
  }
}

// Steady must be a strict no-op: the same bytes as not configuring a
// scenario at all (this is what keeps every legacy golden pin valid).
TEST(ScenarioDifferential, SteadyEqualsNoScenario) {
  RunOptions none;
  const RunArtifacts a = run_campaign(25, none);
  RunOptions steady;
  steady.scenario = sim::scenario_preset("steady");
  const RunArtifacts b = run_campaign(25, steady);
  expect_identical(a, b);
  EXPECT_TRUE(b.summary.empty());
  // Steady registers no scenario gauges, so none leak into the series.
  EXPECT_EQ(b.series_jsonl.find("scenario."), std::string::npos);
}

// ---- regime effects ----------------------------------------------------

// The query storm exists to overwhelm the capture buffer: under a small
// buffer it must lose strictly more frames than the steady workload, and
// its scenario.* gauges must show up in the time series.
TEST(ScenarioEffects, QueryStormOverwhelmsTheBuffer) {
  capture::KernelBufferConfig buffer;
  buffer.capacity = 64;
  buffer.drain_rate = 25.0;

  RunOptions steady;
  steady.buffer = buffer;
  const RunArtifacts calm = run_campaign(26, steady);
  ASSERT_TRUE(calm.report.pipeline.ok()) << calm.report.pipeline.error;

  RunOptions storm = steady;
  storm.scenario = sim::scenario_preset("query_storm");
  const RunArtifacts stormy = run_campaign(26, storm);
  ASSERT_TRUE(stormy.report.pipeline.ok()) << stormy.report.pipeline.error;

  EXPECT_GT(stormy.report.frames_lost, calm.report.frames_lost);
  EXPECT_GE(stormy.report.buffer_high_water, calm.report.buffer_high_water);
  EXPECT_NE(stormy.series_jsonl.find("scenario.phase"), std::string::npos);
  EXPECT_NE(stormy.series_jsonl.find("scenario.background_boost_milli"),
            std::string::npos);
  EXPECT_FALSE(stormy.summary.empty());
}

// The polluter flood aims forged fileIDs at the top-k popular files; the
// steady workload never does.
TEST(ScenarioEffects, PolluterFloodTargetsPopularFiles) {
  RunOptions steady;
  const RunArtifacts calm = run_campaign(27, steady);
  EXPECT_EQ(calm.report.truth.polluted_entries, 0u);

  RunOptions flood;
  flood.scenario = sim::scenario_preset("polluter_flood");
  const RunArtifacts flooded = run_campaign(27, flood);
  ASSERT_TRUE(flooded.report.pipeline.ok()) << flooded.report.pipeline.error;
  EXPECT_GT(flooded.report.truth.polluted_entries, 0u);
  EXPECT_NE(flooded.summary.find("pollution:"), std::string::npos);
  EXPECT_NE(flooded.summary.find("polluter_flood"), std::string::npos);
}

// The churn wave's arrival envelope really does move sessions into the
// waves: session-start pressure inside the waves far exceeds the uniform
// share of the timeline they cover.
TEST(ScenarioEffects, SummaryReportsWaveTimeline) {
  RunOptions churn;
  churn.scenario = sim::scenario_preset("churn_wave");
  const RunArtifacts art = run_campaign(28, churn);
  ASSERT_TRUE(art.report.pipeline.ok()) << art.report.pipeline.error;
  ASSERT_FALSE(art.summary.empty());
  EXPECT_NE(art.summary.find("churn_wave"), std::string::npos);
  EXPECT_NE(art.summary.find("wave  window"), std::string::npos);
  // One timeline row per configured wave.
  const auto preset = *sim::scenario_preset("churn_wave");
  std::size_t rows = 0;
  for (std::size_t at = art.summary.find("  x"); at != std::string::npos;
       at = art.summary.find("  x", at + 1)) {
    ++rows;
  }
  EXPECT_GE(rows, preset.waves);
}

// ---- golden pins -------------------------------------------------------
//
// Whole-chain fingerprints of two storm presets at a fixed seed: the XML
// dataset and the scenario summary.  Any change to the envelope math, the
// wave layout, the polluter targeting or the summary rendering shows up
// here first.  (The hashes must hold in every build type: the chain is
// integer/IEEE-exact.)
TEST(ScenarioGolden, FlashCrowdPins) {
  RunOptions opt;
  opt.scenario = sim::scenario_preset("flash_crowd");
  const RunArtifacts art = run_campaign(4242, opt);
  ASSERT_TRUE(art.report.pipeline.ok()) << art.report.pipeline.error;
  EXPECT_EQ(Sha256::digest(art.xml).hex(),
            "62e743cf00a152a9e4373ea2708fa0bdf02b40b8f3df01dc795130f5853f3fd4");
  EXPECT_EQ(Sha256::digest(art.summary).hex(),
            "46e2287baddbfbf47ee8bc61e5f7c9fac985e01ee1dab57daaa98c433bda8e50");
}

TEST(ScenarioGolden, PolluterFloodPins) {
  RunOptions opt;
  opt.scenario = sim::scenario_preset("polluter_flood");
  const RunArtifacts art = run_campaign(4242, opt);
  ASSERT_TRUE(art.report.pipeline.ok()) << art.report.pipeline.error;
  EXPECT_EQ(Sha256::digest(art.xml).hex(),
            "c8fdfbe4cee7062b2f74e8c1448960f37282790b84cd9161c070d452085a1161");
  EXPECT_EQ(Sha256::digest(art.summary).hex(),
            "adf235f19d11e4bf4ed304cf17295b29d1c675a98cba362972c54a2a68e3276c");
}

}  // namespace
}  // namespace dtr
