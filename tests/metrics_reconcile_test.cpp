// Property-style reconciliation: the metrics a run records must agree
// *exactly* with the ground truth the pipeline itself reports.  A metrics
// layer that drifts from the numbers it claims to mirror is worse than no
// metrics at all — so every counter here is equality-checked against the
// authoritative accumulator (DecodeStats / CampaignStats / CaptureEngine),
// across several seeds and worker counts, and the pipeline records exactly
// the counters of the single-threaded reference (reference_pipeline.hpp).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/campaign_runner.hpp"
#include "core/parallel_pipeline.hpp"
#include "hash/md4.hpp"
#include "hostile_frames.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/resource.hpp"
#include "obs/snapshot.hpp"
#include "obs/timeseries.hpp"
#include "reference_pipeline.hpp"
#include "server/server.hpp"
#include "sim/campaign.hpp"

namespace dtr::core {
namespace {

sim::CampaignConfig campaign_config(std::uint64_t seed) {
  sim::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.duration = 3 * kHour;
  cfg.population.client_count = 60;
  cfg.catalog.file_count = 400;
  cfg.catalog.vocabulary = 150;
  cfg.population.collector_share_max = 700;
  cfg.population.scanner_ask_max = 300;
  cfg.mtu = 900;  // force fragmentation so net.reassembly.* moves
  return cfg;
}

struct RunResult {
  PipelineResult result;
  obs::Snapshot metrics;
  std::uint64_t stats_messages = 0;
  std::uint64_t stats_queries = 0;
  std::uint64_t provider_relations = 0;
  std::uint64_t asker_relations = 0;
  std::uint64_t stats_distinct_clients = 0;
  std::uint64_t stats_distinct_files = 0;
  std::uint64_t frames_pushed = 0;
};

/// One worker (the default), powers of two, and odd counts whose flow hash
/// spreads unevenly.
constexpr std::size_t kWorkerCounts[] = {1, 2, 3, 4, 7};

RunResult run_reference(const sim::CampaignConfig& cfg,
                        obs::Registry& registry,
                        const std::vector<sim::TimedFrame>* corpus = nullptr) {
  ReferencePipeline pipeline(cfg.server_ip, cfg.server_port, nullptr,
                             &registry);
  RunResult run;
  testing_frames::feed(cfg, corpus, [&](const sim::TimedFrame& f) {
    pipeline.push(f);
    ++run.frames_pushed;
  });
  run.result = pipeline.finish();
  run.metrics = registry.snapshot();
  run.stats_messages = pipeline.stats().messages();
  run.stats_queries = pipeline.stats().queries();
  run.provider_relations = pipeline.stats().provider_relations();
  run.asker_relations = pipeline.stats().asker_relations();
  run.stats_distinct_clients = pipeline.stats().distinct_clients();
  run.stats_distinct_files = pipeline.stats().distinct_files();
  return run;
}

RunResult run_parallel(const sim::CampaignConfig& cfg, std::size_t workers,
                       obs::Registry& registry,
                       const std::vector<sim::TimedFrame>* corpus = nullptr) {
  ParallelPipelineConfig pc;
  pc.server_ip = cfg.server_ip;
  pc.server_port = cfg.server_port;
  pc.workers = workers;
  pc.metrics = &registry;
  ParallelCapturePipeline pipeline(pc);
  RunResult run;
  testing_frames::feed(cfg, corpus, [&](const sim::TimedFrame& f) {
    pipeline.push(f);
    ++run.frames_pushed;
  });
  run.result = pipeline.finish();
  run.metrics = registry.snapshot();
  run.stats_messages = pipeline.stats().messages();
  run.stats_queries = pipeline.stats().queries();
  run.provider_relations = pipeline.stats().provider_relations();
  run.asker_relations = pipeline.stats().asker_relations();
  run.stats_distinct_clients = pipeline.stats().distinct_clients();
  run.stats_distinct_files = pipeline.stats().distinct_files();
  return run;
}

/// Every assertion the ISSUE's acceptance criterion names, plus the rest of
/// the counter surface, against the pipeline's own authoritative numbers.
void expect_reconciled(const RunResult& run, const char* label) {
  const obs::Snapshot& m = run.metrics;
  const decode::DecodeStats& d = run.result.decode;

  // decode.* counters == DecodeStats, field by field.
  EXPECT_EQ(m.counter("decode.frames"), d.frames) << label;
  EXPECT_EQ(m.counter("decode.non_ipv4"), d.non_ipv4_frames) << label;
  EXPECT_EQ(m.counter("decode.bad_ip"), d.bad_ip_packets) << label;
  EXPECT_EQ(m.counter("decode.tcp"), d.tcp_packets) << label;
  EXPECT_EQ(m.counter("decode.other_ip"), d.other_ip_packets) << label;
  EXPECT_EQ(m.counter("decode.udp.packets"), d.udp_packets) << label;
  EXPECT_EQ(m.counter("decode.udp.fragments"), d.udp_fragments) << label;
  EXPECT_EQ(m.counter("decode.udp.malformed"), d.udp_malformed) << label;
  EXPECT_EQ(m.counter("decode.edonkey"), d.edonkey_messages) << label;
  EXPECT_EQ(m.counter("decode.messages"), d.decoded) << label;

  // The family breakdown partitions decode.messages.
  std::uint64_t family_total = 0;
  for (const char* family :
       {"management", "file-search", "source-search", "announcement"}) {
    family_total += m.counter(std::string("decode.messages.") + family);
  }
  EXPECT_EQ(family_total, d.decoded) << label;

  // The rejection breakdown partitions the undecoded count.
  std::uint64_t malformed_total = 0;
  for (const auto& [name, value] : m.counters) {
    if (name.rfind("decode.malformed.", 0) == 0) malformed_total += value;
  }
  EXPECT_EQ(malformed_total, d.undecoded()) << label;

  // Pipeline-level accounting: every pushed frame counted, every decoded
  // message anonymised, analysed, and counted — all four views agree.
  EXPECT_EQ(m.counter("pipeline.frames"), run.frames_pushed) << label;
  EXPECT_EQ(m.counter("pipeline.messages"), run.result.anonymised_events)
      << label;
  EXPECT_EQ(m.counter("decode.messages"), run.result.anonymised_events)
      << label;
  EXPECT_EQ(m.counter("anon.events"), run.result.anonymised_events) << label;
  EXPECT_EQ(m.counter("analysis.messages"), run.stats_messages) << label;
  EXPECT_EQ(m.counter("analysis.queries"), run.stats_queries) << label;
  EXPECT_EQ(run.stats_messages, run.result.anonymised_events) << label;

  // Gauges frozen at end of run == final accumulator state.
  EXPECT_EQ(m.gauge("analysis.relations.provider"),
            static_cast<std::int64_t>(run.provider_relations))
      << label;
  EXPECT_EQ(m.gauge("analysis.relations.asker"),
            static_cast<std::int64_t>(run.asker_relations))
      << label;
  EXPECT_EQ(m.gauge("analysis.clients.distinct"),
            static_cast<std::int64_t>(run.stats_distinct_clients))
      << label;
  EXPECT_EQ(m.gauge("analysis.files.distinct"),
            static_cast<std::int64_t>(run.stats_distinct_files))
      << label;
  EXPECT_EQ(m.gauge("anon.clients.distinct"),
            static_cast<std::int64_t>(run.result.distinct_clients))
      << label;
  EXPECT_EQ(m.gauge("anon.files.distinct"),
            static_cast<std::int64_t>(run.result.distinct_files))
      << label;

  // Span histograms are wall-clock (not value-deterministic), but their
  // counts are: one decode span per frame, one anonymise span per message.
  EXPECT_EQ(m.histograms.at("span.decode.seconds").count, run.frames_pushed)
      << label;
  EXPECT_EQ(m.histograms.at("span.anonymise.seconds").count,
            run.result.anonymised_events)
      << label;

  // The campaign must actually exercise the tricky paths.
  EXPECT_GT(m.counter("decode.udp.fragments"), 0u) << label;
  EXPECT_GT(m.counter("net.reassembly.fragments"), 0u) << label;
  EXPECT_GT(m.counter("decode.messages"), 0u) << label;
}

class Seeds : public ::testing::TestWithParam<std::uint64_t> {};

// The oracle's own instruments must hold to its accumulators first.
TEST_P(Seeds, ReferenceMetricsReconcile) {
  obs::Registry registry;
  RunResult run = run_reference(campaign_config(GetParam()), registry);
  expect_reconciled(run, "reference");
}

/// The pipeline's own data-plane accounting, which the reference has no
/// counterpart for.
void expect_batches_reconciled(const RunResult& run) {
  // Micro-batch accounting: one message-batch observation per frame
  // batch, every routed frame in exactly one batch, every decoded
  // message in exactly one batch.  Only UDP frames are routed: the
  // feeder settles every other frame without batching it.
  const obs::HistogramSnapshot& frames_hist =
      run.metrics.histograms.at("pipeline.batch.frames");
  const obs::HistogramSnapshot& messages_hist =
      run.metrics.histograms.at("pipeline.batch.messages");
  EXPECT_EQ(frames_hist.count, messages_hist.count);
  EXPECT_EQ(frames_hist.sum,
            static_cast<double>(run.metrics.counter("decode.udp.packets")));
  EXPECT_EQ(messages_hist.sum,
            static_cast<double>(run.result.anonymised_events));
  // Pool accounting: exactly one frame-batch and one result-batch
  // acquisition per batch (the hit/miss *split* is scheduling-dependent,
  // the total is not; no XML sink here, so the chunk pool stays idle).
  EXPECT_EQ(run.metrics.counter("pipeline.pool.hits") +
                run.metrics.counter("pipeline.pool.misses"),
            2 * frames_hist.count);
  // A clean run never pushes into a closed queue.
  EXPECT_EQ(run.metrics.counter("pipeline.dropped_on_close"), 0u);
}

TEST_P(Seeds, PipelineRecordsTheReferenceCounters) {
  const sim::CampaignConfig cfg = campaign_config(GetParam());
  // The plain campaign, then the same campaign under background TCP and
  // crafted non-IPv4 / bad-IP / other-IP frames, which the pipeline's
  // feeder settles on its own decoder: decode.tcp, decode.non_ipv4,
  // decode.bad_ip and decode.other_ip must still match the reference
  // decoder's.
  const std::vector<sim::TimedFrame> hostile =
      testing_frames::hostile_corpus(cfg);
  for (const std::vector<sim::TimedFrame>* corpus :
       {static_cast<const std::vector<sim::TimedFrame>*>(nullptr), &hostile}) {
    SCOPED_TRACE(corpus == nullptr ? "campaign" : "campaign + hostile frames");
    obs::Registry reference_reg;
    const RunResult reference = run_reference(cfg, reference_reg, corpus);
    if (corpus != nullptr) {
      for (const char* name : {"decode.tcp", "decode.non_ipv4",
                               "decode.bad_ip", "decode.other_ip"}) {
        EXPECT_GT(reference.metrics.counter(name), 0u) << name;
      }
    }
    for (std::size_t workers : kWorkerCounts) {
      SCOPED_TRACE(::testing::Message() << workers << " workers");
      obs::Registry parallel_reg;
      const RunResult parallel =
          run_parallel(cfg, workers, parallel_reg, corpus);
      expect_reconciled(parallel, "parallel");
      expect_batches_reconciled(parallel);
      // Every counter the reference records, the pipeline records with the
      // same value.  (Its own data-plane counters — pools, rings, writer,
      // shard split — have no reference counterpart.)
      for (const auto& [name, value] : reference.metrics.counters) {
        EXPECT_EQ(parallel.metrics.counter(name), value) << name;
      }
      EXPECT_EQ(reference.result.anonymised_events,
                parallel.result.anonymised_events);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Campaigns, Seeds, ::testing::Values(11, 29, 47));

// The hole corpus (hostile_frames.hpp) makes workers leave holes for
// unseen IDs in almost every message: the tallies the merger commits and
// the tables it fills must still count exactly what the serial run does.
TEST(HoleCorpus, AnonCountersMatchTheSerialRun) {
  const sim::CampaignConfig cfg = campaign_config(11);
  const std::vector<sim::TimedFrame> corpus =
      testing_frames::hole_corpus(cfg.server_ip, cfg.server_port);
  obs::Registry reference_reg;
  const RunResult reference = run_reference(cfg, reference_reg, &corpus);
  ASSERT_EQ(reference.result.anonymised_events, corpus.size());
  for (std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    obs::Registry parallel_reg;
    const RunResult parallel =
        run_parallel(cfg, workers, parallel_reg, &corpus);
    const obs::Snapshot& m = parallel.metrics;
    EXPECT_EQ(m.histograms.at("pipeline.batch.frames").count, corpus.size())
        << "one frame per micro-batch";
    for (const char* name :
         {"anon.events", "anon.client_lookups", "anon.file_lookups"}) {
      EXPECT_EQ(m.counter(name), reference.metrics.counter(name)) << name;
    }
    for (const char* name : {"anon.clients.distinct", "anon.files.distinct"}) {
      EXPECT_EQ(m.gauge(name), reference.metrics.gauge(name)) << name;
    }
    // Five of a round's six messages carry a first sighting, which no
    // worker can resolve; the split itself partitions the events.
    EXPECT_GE(m.counter("anon.shard.deferred_events"), corpus.size() * 5 / 6);
    EXPECT_EQ(m.counter("anon.shard.fast_events") +
                  m.counter("anon.shard.deferred_events"),
              m.counter("anon.events"));
  }
}

TEST(RunnerMetrics, CaptureCountersMatchEngineReport) {
  // A deliberately starved kernel buffer: the reader drains slower than
  // the campaign's average arrival rate (~0.4 pkt/s at tiny scale), so the
  // buffer saturates and drops are guaranteed.  The capture.* counters
  // must equal the engine's own report exactly.
  core::RunnerConfig cfg = core::RunnerConfig::tiny(77);
  cfg.buffer.capacity = 8;
  cfg.buffer.drain_rate = 0.2;
  cfg.buffer.stall_per_hour = 0.0;
  obs::Registry registry;
  cfg.metrics = &registry;

  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();
  obs::Snapshot m = registry.snapshot();

  EXPECT_GT(report.frames_lost, 0u) << "config must actually overflow";
  EXPECT_EQ(m.counter("capture.accepted"), report.frames_captured);
  EXPECT_EQ(m.counter("capture.dropped"), report.frames_lost);
  EXPECT_EQ(m.gauge("capture.occupancy_high_water"),
            static_cast<std::int64_t>(report.buffer_high_water));
  EXPECT_GT(report.buffer_high_water, 0u);
  EXPECT_LE(report.buffer_high_water, cfg.buffer.capacity);
  // Only captured frames reach the pipeline.
  EXPECT_EQ(m.counter("pipeline.frames"), report.frames_captured);
  EXPECT_EQ(m.counter("decode.frames"), report.frames_captured);
  // The simulator's server index instruments are registered too.
  EXPECT_GT(m.counter("server.index.publishes"), 0u);
  EXPECT_GT(m.counter("server.index.searches"), 0u);
}

TEST(RunnerMetrics, ParallelRunnerReconcilesToo) {
  core::RunnerConfig cfg = core::RunnerConfig::tiny(78);
  cfg.workers = 3;
  obs::Registry registry;
  cfg.metrics = &registry;
  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();
  obs::Snapshot m = registry.snapshot();
  EXPECT_EQ(m.counter("capture.accepted"), report.frames_captured);
  EXPECT_EQ(m.counter("decode.messages"), report.pipeline.anonymised_events);
  EXPECT_EQ(m.counter("analysis.messages"), runner.stats().messages());
}

TEST(RunnerMetrics, JsonSnapshotCarriesTheAcceptanceCounters) {
  core::RunnerConfig cfg = core::RunnerConfig::tiny(79);
  obs::Registry registry;
  cfg.metrics = &registry;
  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();

  std::ostringstream out;
  registry.snapshot().render_json(out);
  const std::string json = out.str();
  // The acceptance criterion inspects these two names in the JSON document.
  std::string decode_messages =
      "\"decode.messages\": " + std::to_string(report.pipeline.decode.decoded);
  std::string capture_dropped =
      "\"capture.dropped\": " + std::to_string(report.frames_lost);
  EXPECT_NE(json.find(decode_messages), std::string::npos) << json.substr(0, 400);
  EXPECT_NE(json.find(capture_dropped), std::string::npos);
}

// --- Time-series determinism (the PR 2 acceptance criteria) -------------
//
// The recorder samples the registry at interval boundaries with the
// pipeline flushed to the intake boundary, so the *series* — not just the
// end-of-run totals — must be identical at every worker count and
// byte-identical between same-seed runs.

struct SeriesRun {
  std::vector<obs::TimeSeriesRecorder::Sample> samples;
  std::string jsonl;
  std::string csv;
  std::string xml;
};

struct DataPlaneTuning {
  obs::Profiler* profiler = nullptr;
  /// Run a wall-clock ResourceSampler over the registry for the duration:
  /// its operational proc.* gauges land in the same registry the series
  /// samples, so this is the live test that they stay out of it.
  bool sample_resources = false;
};

SeriesRun run_with_series(std::uint64_t seed, std::size_t workers,
                          DataPlaneTuning tuning = {}) {
  core::RunnerConfig cfg;
  cfg.campaign = campaign_config(seed);
  cfg.workers = workers;
  cfg.profiler = tuning.profiler;
  obs::Registry registry;
  obs::TimeSeriesRecorder series(registry, 30 * kMinute);
  cfg.metrics = &registry;
  cfg.series = &series;
  std::ostringstream xml;
  cfg.xml_out = &xml;

  std::unique_ptr<obs::ResourceSampler> sampler;
  if (tuning.sample_resources) {
    obs::ResourceSamplerOptions sampler_options;
    sampler_options.interval = std::chrono::milliseconds(5);
    sampler = std::make_unique<obs::ResourceSampler>(&registry, sampler_options);
    sampler->start();
  }
  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();
  if (sampler) sampler->stop();
  EXPECT_TRUE(report.pipeline.ok()) << report.pipeline.error;

  SeriesRun run;
  run.samples = series.samples();
  std::ostringstream jsonl;
  series.write_jsonl(jsonl);
  run.jsonl = jsonl.str();
  std::ostringstream csv;
  series.write_csv(csv);
  run.csv = csv.str();
  run.xml = xml.str();
  return run;
}

TEST(SeriesReconcile, WorkerCountsProduceIdenticalCounterSeries) {
  SeriesRun one = run_with_series(31, 0);
  SeriesRun parallel = run_with_series(31, 3);

  // 3h campaign, 30min interval: at least 6 boundaries (sessions started
  // near the end emit frames past the nominal duration, so there can be
  // more), every one interval-aligned.
  ASSERT_GE(one.samples.size(), 6u);
  ASSERT_EQ(parallel.samples.size(), one.samples.size());
  for (std::size_t i = 0; i < one.samples.size(); ++i) {
    EXPECT_EQ(one.samples[i].time, parallel.samples[i].time);
    EXPECT_EQ(one.samples[i].time % (30 * kMinute), 0u);
    // The counter *series* agrees sample by sample — flush() quiesces the
    // pipeline to the same intake boundary at any worker count, so this
    // holds regardless of worker scheduling.  (Histograms differ by
    // construction: batch shapes depend on how frames route to workers.)
    EXPECT_EQ(one.samples[i].snapshot.counters,
              parallel.samples[i].snapshot.counters)
        << "sample " << i << " at t=" << one.samples[i].time;
  }
  // The series must actually move between samples, or the test is vacuous.
  EXPECT_GT(one.samples.front().snapshot.counter("decode.frames"), 0u);
  EXPECT_GT(one.samples.back().snapshot.counter("decode.frames"),
            one.samples.front().snapshot.counter("decode.frames"));
}

TEST(SeriesReconcile, SameSeedRunsAreByteIdentical) {
  SeriesRun a = run_with_series(32, 0);
  SeriesRun b = run_with_series(32, 0);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_FALSE(a.jsonl.empty());

  SeriesRun pa = run_with_series(32, 3);
  SeriesRun pb = run_with_series(32, 3);
  EXPECT_EQ(pa.jsonl, pb.jsonl);
  EXPECT_EQ(pa.csv, pb.csv);
  EXPECT_EQ(pa.xml, pb.xml);
}

// The pipeline profiler observes wall time only — it must never feed the
// registry, the series, or the XML writer.  An unprofiled one-worker run
// against a profiled three-worker run (with a live resource sampler
// publishing proc.* gauges into the same registry) is the strongest version
// of that claim: XML byte for byte, counter series sample by sample, and
// the profiler itself must have real attribution to show for it.
TEST(SeriesReconcile, ProfilerPresenceNeverChangesTheBytes) {
  const SeriesRun reference = run_with_series(36, 0);
  ASSERT_FALSE(reference.xml.empty());

  obs::Profiler profiler;
  DataPlaneTuning tuning;
  tuning.profiler = &profiler;
  tuning.sample_resources = true;
  SeriesRun profiled = run_with_series(36, 3, tuning);

  EXPECT_EQ(profiled.xml, reference.xml);
  ASSERT_EQ(profiled.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < reference.samples.size(); ++i) {
    EXPECT_EQ(profiled.samples[i].snapshot.counters,
              reference.samples[i].snapshot.counters)
        << "sample " << i;
  }
  EXPECT_EQ(profiled.jsonl, run_with_series(36, 3).jsonl)
      << "profiled and unprofiled parallel runs must serialise the same "
         "series bytes";

  // ... and the profiler was not a bystander: the pipeline's threads all
  // registered, closed their ledgers, and accumulated real time.
  const auto summaries = profiler.thread_summaries();
  ASSERT_GE(summaries.size(), 5u);  // feed + 3 workers + merge (+ writer)
  for (const auto& thread : summaries) {
    EXPECT_TRUE(thread.finished) << thread.name;
    EXPECT_GT(thread.total_seconds, 0.0) << thread.name;
  }
}

// --- Server-stage reconciliation ------------------------------------------
//
// ServerStats counters are atomic so concurrent handle() calls can bump
// them; the invariant that makes them *meaningful* is that the totals are
// a function of the workload, not of the scheduling.  One workload, two
// servers: one handling it serially, one from four threads (phased so
// answer counts stay deterministic) — every counter must agree.

std::vector<proto::Message> server_workload(std::uint64_t seed,
                                            std::size_t ops) {
  Rng r(seed);
  const std::vector<std::string> vocab = {"alpha", "bravo", "carol", "delta",
                                          "eagle", "frost", "grape", "haste"};
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 120; ++i) {
    names.push_back(vocab[r.below(vocab.size())] + ' ' +
                    vocab[r.below(vocab.size())] + ".mp3");
  }
  auto entry = [&](const std::string& name, proto::ClientId client) {
    proto::FileEntry e;
    e.file_id = Md4::digest(name);
    e.client_id = client;
    e.port = 4662;
    e.tags = {proto::Tag::str(proto::TagName::kFileName, name),
              proto::Tag::u32(proto::TagName::kFileSize,
                              static_cast<std::uint32_t>(1 + r.below(1u << 20))),
              proto::Tag::str(proto::TagName::kFileType, "audio")};
    return e;
  };

  std::vector<proto::Message> queries;
  queries.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t roll = r.below(10);
    if (roll < 4) {
      proto::PublishReq req;
      const std::size_t n = 1 + r.below(5);
      for (std::size_t j = 0; j < n; ++j) {
        req.files.push_back(entry(names[r.below(names.size())],
                                  static_cast<proto::ClientId>(1 + r.below(24))));
      }
      queries.emplace_back(std::move(req));
    } else if (roll < 8) {
      proto::FileSearchReq req;
      req.expr = proto::SearchExpr::keyword(vocab[r.below(vocab.size())]);
      queries.emplace_back(std::move(req));
    } else {
      proto::GetSourcesReq req;
      req.file_ids.push_back(Md4::digest(names[r.below(names.size())]));
      queries.emplace_back(std::move(req));
    }
  }
  return queries;
}

TEST(ServerReconcile, ConcurrentThreadsTotalsMatchSerialTotals) {
  // Phase the workload (all publishes, join, then all reads) so answer
  // counts are schedule-independent, then compare against a serial server
  // handling the same phases.
  const std::vector<proto::Message> queries = server_workload(9, 600);
  const auto client_of = [&](const proto::Message& q) {
    return static_cast<proto::ClientId>(1 + (&q - queries.data()) % 24);
  };
  const auto in_phase = [](const proto::Message& q, bool publishes) {
    return std::holds_alternative<proto::PublishReq>(q) == publishes;
  };

  server::EdonkeyServer serial;
  for (const bool publishes : {true, false}) {
    for (const proto::Message& q : queries) {
      if (in_phase(q, publishes)) serial.handle(client_of(q), 4662, q, 0);
    }
  }

  // Four threads, each handling every fourth query of the phase.
  constexpr std::size_t kThreads = 4;
  server::EdonkeyServer concurrent;
  for (const bool publishes : {true, false}) {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < queries.size(); i += kThreads) {
          const proto::Message& q = queries[i];
          if (in_phase(q, publishes)) {
            concurrent.handle(client_of(q), 4662, q, 0);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  const server::ServerStats a = serial.stats();
  const server::ServerStats b = concurrent.stats();
  EXPECT_EQ(a.queries.load(), b.queries.load());
  EXPECT_EQ(a.answers.load(), b.answers.load());
  EXPECT_EQ(a.searches.load(), b.searches.load());
  EXPECT_EQ(a.source_requests.load(), b.source_requests.load());
  EXPECT_EQ(a.publishes.load(), b.publishes.load());
  EXPECT_EQ(a.published_files_accepted.load(),
            b.published_files_accepted.load());
  EXPECT_EQ(a.unanswerable.load(), b.unanswerable.load());
  EXPECT_EQ(serial.index().file_count(), concurrent.index().file_count());
  EXPECT_EQ(serial.index().source_count(), concurrent.index().source_count());
}

}  // namespace
}  // namespace dtr::core
