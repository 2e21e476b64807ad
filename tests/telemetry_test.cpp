// Tests for the operational telemetry layer grown in this PR: the JSON
// helpers (escaping + validation), the structured rate-limited logger, the
// lock-free flight recorder, the time-series recorder, and the pipeline
// failure path that ties them together (a mid-run stage exception must
// surface as PipelineResult::error plus a time-ordered flight dump, never
// a hang or a crash).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/campaign_runner.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/resource.hpp"
#include "obs/timeseries.hpp"
#include "sim/scenario.hpp"

namespace dtr {
namespace {

std::string escaped(std::string_view raw) {
  std::ostringstream out;
  obs::json_string(out, raw);
  return out.str();
}

TEST(JsonString, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(escaped("plain"), "\"plain\"");
  EXPECT_EQ(escaped("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(escaped("a\\b"), "\"a\\\\b\"");
}

TEST(JsonString, EscapesControlCharacters) {
  // The PR 1 renderer emitted ASCII < 0x20 raw, producing invalid JSON for
  // e.g. a decode-error name with an embedded control byte.  Short forms
  // for the common whitespace escapes, \u00XX for the rest.
  EXPECT_EQ(escaped("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(escaped("a\tb"), "\"a\\tb\"");
  EXPECT_EQ(escaped("a\rb"), "\"a\\rb\"");
  EXPECT_EQ(escaped(std::string_view("a\x01z", 3)), "\"a\\u0001z\"");
  EXPECT_EQ(escaped(std::string_view("\x1f", 1)), "\"\\u001f\"");
  // The escaped form must itself be valid JSON.
  EXPECT_TRUE(obs::json_valid(escaped("a\x01\n\t\"\\z")));
}

TEST(JsonValid, AcceptsRealJson) {
  EXPECT_TRUE(obs::json_valid("{}"));
  EXPECT_TRUE(obs::json_valid("[1, 2.5, -3e4, \"x\", true, false, null]"));
  EXPECT_TRUE(obs::json_valid("{\"a\": {\"b\": [1]}, \"c\": \"\\u0041\"}"));
  EXPECT_TRUE(obs::json_valid("  42  "));
}

TEST(JsonValid, RejectsMalformedJson) {
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_valid("{"));
  EXPECT_FALSE(obs::json_valid("{\"a\": }"));
  EXPECT_FALSE(obs::json_valid("[1,]"));
  EXPECT_FALSE(obs::json_valid("{} trailing"));
  EXPECT_FALSE(obs::json_valid("{\"a\": 01}"));
  EXPECT_FALSE(obs::json_valid("\"raw\ncontrol\""));
}

TEST(JsonValid, JsonlChecksEveryLine) {
  EXPECT_TRUE(obs::jsonl_valid("{\"a\": 1}\n{\"b\": 2}\n"));
  EXPECT_TRUE(obs::jsonl_valid(""));  // an empty series file is fine
  EXPECT_FALSE(obs::jsonl_valid("{\"a\": 1}\nnot json\n"));
}

TEST(Logger, LevelThresholdFilters) {
  obs::CaptureSink sink;
  obs::Logger log;
  log.set_sink(&sink);
  log.set_level(obs::LogLevel::kWarn);
  EXPECT_FALSE(log.enabled(obs::LogLevel::kInfo));
  EXPECT_TRUE(log.enabled(obs::LogLevel::kWarn));
  DTR_LOG_INFO(&log, "test", 0, "filtered " << 1);
  DTR_LOG_WARN(&log, "test", 0, "kept " << 2);
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_EQ(sink.records().front().message, "kept 2");
  EXPECT_EQ(sink.records().front().component, "test");
}

TEST(Logger, UnboundLoggerIsNoOp) {
  // The macro contract: a null logger never formats the message.
  bool formatted = false;
  auto touch = [&formatted] {
    formatted = true;
    return 1;
  };
  obs::Logger* log = nullptr;
  DTR_LOG_WARN(log, "test", 0, "x" << touch());
  EXPECT_FALSE(formatted);
}

TEST(Logger, RateLimitSuppressesStorms) {
  obs::CaptureSink sink;
  obs::Logger log;
  log.set_sink(&sink);
  log.set_level(obs::LogLevel::kDebug);
  log.set_rate_limit({/*tokens_per_second=*/1.0, /*burst=*/5.0});

  // A storm at one simulated instant: only the burst passes.
  for (int i = 0; i < 100; ++i) {
    log.log(obs::LogLevel::kWarn, "decode", 0, "storm");
  }
  EXPECT_EQ(sink.count(), 5u);
  EXPECT_EQ(log.suppressed(), 95u);

  // Errors bypass the limiter even with the bucket empty, and the first
  // record that passes carries the suppressed-run count.
  log.log(obs::LogLevel::kError, "decode", 0, "fatal");
  // Simulated time passes and tokens refill.
  log.log(obs::LogLevel::kWarn, "decode", 3 * kSecond, "after the storm");
  auto records = sink.records();
  ASSERT_EQ(records.size(), 7u);
  EXPECT_EQ(records[5].message, "fatal");
  EXPECT_EQ(records[5].suppressed_before, 95u);
  EXPECT_EQ(records.back().message, "after the storm");
  EXPECT_EQ(records.back().suppressed_before, 0u);
}

TEST(Logger, RefillNeverRunsBackwards) {
  obs::CaptureSink sink;
  obs::Logger log;
  log.set_sink(&sink);
  log.set_rate_limit({1.0, 2.0});
  log.log(obs::LogLevel::kWarn, "t", 10 * kSecond, "a");
  log.log(obs::LogLevel::kWarn, "t", 10 * kSecond, "b");
  // An out-of-order (earlier) timestamp must not mint tokens.
  log.log(obs::LogLevel::kWarn, "t", 0, "c");
  EXPECT_EQ(sink.count(), 2u);
}

TEST(Logger, SuppressedSummaryAndCounterSurfaceTheDrops) {
  obs::CaptureSink sink;
  obs::Logger log;
  log.set_sink(&sink);
  log.set_rate_limit({1.0, 2.0});

  // Three drops happen *before* binding; the counter must carry them
  // forward instead of starting from zero.
  for (int i = 0; i < 5; ++i) log.log(obs::LogLevel::kWarn, "t", 0, "early");
  obs::Registry registry;
  log.bind_metrics(registry);
  EXPECT_EQ(registry.snapshot().counter("log.suppressed"), 3u);

  // Post-binding drops tick the counter live.
  log.log(obs::LogLevel::kWarn, "t", 0, "late");
  EXPECT_EQ(registry.snapshot().counter("log.suppressed"), 4u);
  EXPECT_EQ(log.suppressed(), 4u);

  // The end-of-run summary bypasses both the threshold and the limiter
  // (tokens are long gone) and reports the whole-run total.
  log.set_level(obs::LogLevel::kError);
  const std::size_t before = sink.count();
  log.emit_suppressed_summary(kHour);
  auto records = sink.records();
  ASSERT_EQ(records.size(), before + 1);
  EXPECT_EQ(records.back().component, "log");
  EXPECT_EQ(records.back().level, obs::LogLevel::kInfo);
  EXPECT_EQ(records.back().message, "4 records rate-limited over the run");

  // Nothing suppressed -> no summary line.
  obs::CaptureSink quiet_sink;
  obs::Logger quiet;
  quiet.set_sink(&quiet_sink);
  quiet.log(obs::LogLevel::kWarn, "t", 0, "fine");
  quiet.emit_suppressed_summary(kHour);
  EXPECT_EQ(quiet_sink.count(), 1u);
}

TEST(FlightRecorder, RecordsAndMergesInOrder) {
  obs::FlightRecorder flight(64);
  flight.record(obs::FlightEvent::kFrameAccepted, 10, 1);
  flight.record(obs::FlightEvent::kFrameDropped, 20, 2, 1);
  flight.record(obs::FlightEvent::kPipelineError, 30);
  EXPECT_EQ(flight.recorded(), 3u);

  auto events = flight.merged();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, obs::FlightEvent::kFrameAccepted);
  EXPECT_EQ(events[1].kind, obs::FlightEvent::kFrameDropped);
  EXPECT_EQ(events[1].a, 2u);
  EXPECT_EQ(events[1].b, 1u);
  EXPECT_EQ(events[2].kind, obs::FlightEvent::kPipelineError);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
}

TEST(FlightRecorder, RingKeepsOnlyTheMostRecent) {
  obs::FlightRecorder flight(16);  // already a power of two
  for (std::uint64_t i = 0; i < 100; ++i) {
    flight.record(obs::FlightEvent::kMark, i, i);
  }
  EXPECT_EQ(flight.recorded(), 100u);
  auto events = flight.merged();
  ASSERT_EQ(events.size(), 16u);
  // The survivors are exactly the newest 16, still in order.
  EXPECT_EQ(events.front().a, 84u);
  EXPECT_EQ(events.back().a, 99u);
  // last_n truncation keeps the tail.
  auto tail = flight.merged(4);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().a, 96u);
}

TEST(FlightRecorder, NullRecorderIsANoOp) {
  obs::FlightRecorder* recorder = nullptr;
  obs::record(recorder, obs::FlightEvent::kMark, 1);  // must not crash
}

TEST(FlightRecorder, MergesAcrossThreadsBySequence) {
  obs::FlightRecorder flight(1024);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&flight, &go, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        flight.record(obs::FlightEvent::kMark, i, static_cast<std::uint64_t>(t));
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();

  auto events = flight.merged();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(FlightRecorder, DumpJsonIsValidJson) {
  obs::FlightRecorder flight(32);
  flight.record(obs::FlightEvent::kFrameDropped, 5 * kSecond, 512, 1);
  flight.record(obs::FlightEvent::kDecodeReject, 6 * kSecond, 3);
  std::ostringstream json;
  flight.dump_json(json);
  EXPECT_TRUE(obs::json_valid(json.str())) << json.str();
  EXPECT_NE(json.str().find("frame-dropped"), std::string::npos);

  std::ostringstream text;
  flight.dump_text(text);
  EXPECT_NE(text.str().find("decode-reject"), std::string::npos);
}

TEST(TimeSeriesRecorder, SamplesValuesAndDeltas) {
  obs::Registry registry;
  obs::Counter& c = registry.counter("decode.frames");
  obs::TimeSeriesRecorder series(registry, kSecond);

  EXPECT_FALSE(series.due(kSecond - 1));
  c.inc(10);
  ASSERT_TRUE(series.due(kSecond));
  series.sample();
  c.inc(5);
  series.sample();
  series.sample();  // an interval with no traffic

  auto deltas = series.counter_deltas("decode.frames");
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_EQ(deltas[0], (std::pair<SimTime, std::uint64_t>{kSecond, 10}));
  EXPECT_EQ(deltas[1], (std::pair<SimTime, std::uint64_t>{2 * kSecond, 5}));
  EXPECT_EQ(deltas[2], (std::pair<SimTime, std::uint64_t>{3 * kSecond, 0}));
}

TEST(TimeSeriesRecorder, FinishRecordsTheTail) {
  obs::Registry registry;
  registry.counter("a").inc();
  obs::TimeSeriesRecorder series(registry, kHour);
  series.finish(6 * kHour + kSecond);  // boundaries 1h..6h inclusive
  EXPECT_EQ(series.samples().size(), 6u);
  EXPECT_EQ(series.samples().back().time, 6 * kHour);
}

TEST(Determinism, OperationalInstrumentsStayOutOfTheMeasuredView) {
  constexpr auto kOps = obs::Determinism::kOperational;
  obs::Registry registry;
  registry.counter("decode.frames").inc(3);
  registry.counter("ops.counter", kOps).inc(9);
  registry.gauge("ops.gauge", kOps).set(7);
  registry.histogram("ops.seconds", obs::latency_buckets_s(), kOps)
      .observe(0.5);
  // The first registration fixes the class, either way round.
  registry.counter("ops.counter").inc();
  registry.gauge("decode.depth").set(4);
  registry.gauge("decode.depth", kOps).set(5);

  const obs::Snapshot all = registry.snapshot();
  EXPECT_EQ(all.counter("ops.counter"), 10u);
  EXPECT_EQ(all.gauge("ops.gauge"), 7);
  EXPECT_EQ(all.histograms.count("ops.seconds"), 1u);

  const obs::Snapshot measured = registry.measured_snapshot();
  EXPECT_EQ(measured.counters,
            (std::map<std::string, std::uint64_t>{{"decode.frames", 3}}));
  EXPECT_EQ(measured.gauges,
            (std::map<std::string, std::int64_t>{{"decode.depth", 5}}));
  EXPECT_TRUE(measured.histograms.empty());

  obs::TimeSeriesRecorder series(registry, kHour);
  series.finish(3 * kHour);
  ASSERT_EQ(series.samples().size(), 3u);
  for (const auto& sample : series.samples()) {
    EXPECT_EQ(sample.snapshot, measured);
  }
}

TEST(TimeSeriesRecorder, WritesValidJsonlAndCsv) {
  obs::Registry registry;
  registry.counter("decode.frames").inc(4);
  registry.gauge("anon.clients.distinct").set(2);
  registry.histogram("pipeline.batch.messages", {1.0, 8.0}).observe(3.0);
  obs::TimeSeriesRecorder series(registry, kSecond);
  series.sample();
  registry.counter("decode.frames").inc(1);
  series.sample();

  std::ostringstream jsonl;
  series.write_jsonl(jsonl);
  EXPECT_TRUE(obs::jsonl_valid(jsonl.str())) << jsonl.str();
  EXPECT_NE(jsonl.str().find("\"p95\""), std::string::npos);

  std::ostringstream csv;
  series.write_csv(csv);
  std::istringstream lines(csv.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_NE(header.find("decode.frames.delta"), std::string::npos);
  EXPECT_NE(header.find("pipeline.batch.messages.p99"), std::string::npos);
  std::string row;
  int rows = 0;
  while (std::getline(lines, row)) ++rows;
  EXPECT_EQ(rows, 2);
}

TEST(TimeSeriesRecorder, ByteIdenticalAcrossIdenticalRuns) {
  auto run = [] {
    obs::Registry registry;
    obs::TimeSeriesRecorder series(registry, kSecond);
    obs::Counter& c = registry.counter("decode.frames");
    obs::Histogram& h = registry.histogram("pipeline.batch.messages", {2.0});
    for (int i = 1; i <= 5; ++i) {
      c.inc(static_cast<std::uint64_t>(i));
      h.observe(static_cast<double>(i % 3));
      series.sample();
    }
    std::ostringstream jsonl;
    series.write_jsonl(jsonl);
    std::ostringstream csv;
    series.write_csv(csv);
    return jsonl.str() + "\x1e" + csv.str();
  };
  EXPECT_EQ(run(), run());
}

// A campaign config small enough for failure-path tests to stay fast.
core::RunnerConfig failing_config(std::size_t workers) {
  core::RunnerConfig cfg;
  cfg.campaign.seed = 77;
  cfg.campaign.duration = kHour;
  cfg.campaign.population.client_count = 40;
  cfg.campaign.catalog.file_count = 200;
  cfg.campaign.catalog.vocabulary = 120;
  cfg.workers = workers;
  return cfg;
}

TEST(PipelineFailure, OneWorkerSurfacesErrorAndFlightDump) {
  core::RunnerConfig cfg = failing_config(0);
  obs::FlightRecorder flight(256);
  cfg.flight = &flight;
  int events = 0;
  cfg.extra_sink = [&events](const anon::AnonEvent&) {
    if (++events == 10) throw std::runtime_error("boom");
  };

  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();  // must not hang or crash

  EXPECT_FALSE(report.pipeline.ok());
  EXPECT_NE(report.pipeline.error.find("anonymise"), std::string::npos);
  EXPECT_NE(report.pipeline.error.find("boom"), std::string::npos);
  // Exactly one failure recorded, after the normal traffic events, and the
  // merged dump is time-ordered (ascending seq).
  auto recorded = flight.merged();
  ASSERT_FALSE(recorded.empty());
  int errors = 0;
  for (const auto& ev : recorded) {
    if (ev.kind == obs::FlightEvent::kPipelineError) ++errors;
  }
  EXPECT_EQ(errors, 1);
  for (std::size_t i = 1; i < recorded.size(); ++i) {
    EXPECT_LT(recorded[i - 1].seq, recorded[i].seq);
  }
  // Dump everything surviving — post-failure drain traffic would push the
  // error event out of a tail-truncated dump (the CLI dumps all too).
  std::ostringstream json;
  flight.dump_json(json, static_cast<std::size_t>(-1));
  EXPECT_TRUE(obs::json_valid(json.str()));
  EXPECT_NE(json.str().find("pipeline-error"), std::string::npos);
}

TEST(PipelineFailure, ParallelSurfacesErrorAndDrains) {
  core::RunnerConfig cfg = failing_config(3);
  obs::FlightRecorder flight(256);
  cfg.flight = &flight;
  int events = 0;
  cfg.extra_sink = [&events](const anon::AnonEvent&) {
    if (++events == 10) throw std::runtime_error("merge boom");
  };

  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();

  EXPECT_FALSE(report.pipeline.ok());
  EXPECT_NE(report.pipeline.error.find("anonymise"), std::string::npos);
  EXPECT_NE(report.pipeline.error.find("merge boom"), std::string::npos);
  bool saw_error = false;
  for (const auto& ev : flight.merged()) {
    saw_error = saw_error || ev.kind == obs::FlightEvent::kPipelineError;
  }
  EXPECT_TRUE(saw_error);
}

TEST(PipelineFailure, ErrorLogsAtErrorLevel) {
  core::RunnerConfig cfg = failing_config(0);
  obs::CaptureSink sink;
  obs::Logger log;
  log.set_sink(&sink);
  log.set_level(obs::LogLevel::kError);
  cfg.log = &log;
  int events = 0;
  cfg.extra_sink = [&events](const anon::AnonEvent&) {
    if (++events == 5) throw std::runtime_error("logged failure");
  };

  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();
  ASSERT_FALSE(report.pipeline.ok());
  bool logged = false;
  for (const auto& record : sink.records()) {
    logged = logged ||
             (record.level == obs::LogLevel::kError &&
              record.message.find("logged failure") != std::string::npos);
  }
  EXPECT_TRUE(logged);
}

TEST(RunnerSeries, RecordsIntervalSeriesDuringCampaign) {
  core::RunnerConfig cfg = failing_config(0);
  cfg.campaign.duration = 2 * kHour;
  obs::Registry registry;
  obs::TimeSeriesRecorder series(registry, 30 * kMinute);
  cfg.metrics = &registry;
  cfg.series = &series;

  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();
  ASSERT_TRUE(report.pipeline.ok());

  // At least the four in-campaign boundaries (0.5h..2h); sessions started
  // near the end emit frames past the nominal duration, and the runner
  // pads finish() so the last partial interval is captured too.
  ASSERT_GE(series.samples().size(), 4u);
  for (const auto& sample : series.samples()) {
    EXPECT_EQ(sample.time % (30 * kMinute), 0u);
  }
  auto deltas = series.counter_deltas("decode.frames");
  std::uint64_t total = 0;
  for (const auto& [time, delta] : deltas) total += delta;
  EXPECT_EQ(total, report.pipeline.decode.frames);
  // The final sample holds the end-of-run counter values.
  EXPECT_EQ(series.samples().back().snapshot.counter("decode.frames"),
            report.pipeline.decode.frames);
}

// The "Metric name inventory" table in docs/OBSERVABILITY.md lists every
// instrument a campaign can register, with its type and class.  A run with
// every feature on (two workers, background traffic, a scenario,
// compression, checkpoint and resume, a bound logger, the profiler with
// its resource sampler, a series) must register exactly that set.
using InventoryRow = std::tuple<std::string, std::string, std::string>;

std::set<InventoryRow> registered_inventory(const obs::Registry& registry) {
  // One row for every index shard: server.index.shard.<k>.files.
  auto generic = [](std::string name) {
    const std::string shard = "server.index.shard.";
    if (name.rfind(shard, 0) == 0) {
      name.replace(shard.size(), name.find('.', shard.size()) - shard.size(),
                   "<k>");
    }
    return name;
  };
  const obs::Snapshot measured = registry.measured_snapshot();
  auto cls = [&](const auto& instruments, const std::string& name) {
    return instruments.count(name) != 0 ? "measured" : "operational";
  };
  std::set<InventoryRow> rows;
  const obs::Snapshot all = registry.snapshot();
  for (const auto& [name, v] : all.counters) {
    rows.emplace(generic(name), "counter", cls(measured.counters, name));
  }
  for (const auto& [name, v] : all.gauges) {
    rows.emplace(generic(name), "gauge", cls(measured.gauges, name));
  }
  for (const auto& [name, h] : all.histograms) {
    rows.emplace(generic(name), "histogram", cls(measured.histograms, name));
  }
  return rows;
}

std::set<InventoryRow> documented_inventory() {
  std::ifstream doc(DTR_SOURCE_DIR "/docs/OBSERVABILITY.md");
  EXPECT_TRUE(doc.good());
  std::set<InventoryRow> rows;
  bool in_inventory = false;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_inventory = line == "## Metric name inventory";
      continue;
    }
    if (!in_inventory || line.rfind("| `", 0) != 0) continue;
    // | `name` | type | class | meaning |
    std::vector<std::string> cells;
    std::istringstream cols(line.substr(1));
    for (std::string cell; std::getline(cols, cell, '|');) {
      const auto first = cell.find_first_not_of(" `");
      const auto last = cell.find_last_not_of(" `");
      cells.push_back(first == std::string::npos
                          ? ""
                          : cell.substr(first, last - first + 1));
    }
    EXPECT_GE(cells.size(), 4u) << line;
    if (cells.size() >= 3) rows.emplace(cells[0], cells[1], cells[2]);
  }
  return rows;
}

TEST(Inventory, DocsTableMatchesAFullFeatureRun) {
  // Per process, so concurrent runs (sanitizer builds) never share it.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("inventory_ckpt_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  std::set<InventoryRow> seen;
  auto run = [&](const std::string& resume_from) {
    core::RunnerConfig cfg = core::RunnerConfig::tiny(17);
    cfg.campaign.duration = 3 * kHour;
    cfg.campaign.scenario = *sim::scenario_preset("flash_crowd");
    sim::BackgroundConfig bg;
    bg.syn_per_minute = 30.0;
    cfg.background = bg;
    cfg.workers = 2;
    cfg.compress = true;
    std::ostringstream xml;
    cfg.xml_out = &xml;
    cfg.checkpoint_dir = (dir / (resume_from.empty() ? "a" : "b")).string();
    cfg.checkpoint_interval = kHour;
    cfg.resume_from = resume_from;

    obs::Registry registry;
    cfg.metrics = &registry;
    obs::CaptureSink sink;
    obs::Logger logger;
    logger.set_level(obs::LogLevel::kDebug);
    logger.set_sink(&sink);
    logger.bind_metrics(registry);
    cfg.log = &logger;
    obs::Profiler profiler;
    cfg.profiler = &profiler;
    obs::ResourceSampler sampler(&registry);
    obs::TimeSeriesRecorder series(registry, 30 * kMinute);
    cfg.series = &series;

    core::CampaignRunner runner(cfg);
    sampler.start();
    const core::CampaignReport report = runner.run();
    sampler.stop();
    ASSERT_TRUE(report.pipeline.ok()) << report.pipeline.error;
    const std::set<InventoryRow> rows = registered_inventory(registry);
    seen.insert(rows.begin(), rows.end());
  };
  run("");
  run((dir / "a" / core::checkpoint_file_name(kHour)).string());

  const std::set<InventoryRow> documented = documented_inventory();
  for (const auto& [name, type, cls] : seen) {
    EXPECT_EQ(documented.count({name, type, cls}), 1u)
        << "registered, not in the docs table: " << name << " | " << type
        << " | " << cls;
  }
  for (const auto& [name, type, cls] : documented) {
    EXPECT_EQ(seen.count({name, type, cls}), 1u)
        << "in the docs table, not registered: " << name << " | " << type
        << " | " << cls;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dtr
