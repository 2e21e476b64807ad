// Pipeline profiler: per-thread time attribution, the resource sampler,
// and the bottleneck report (the ISSUE 7 tentpole).
//
// The state machine is exercised with real sleeps — the assertions are
// deliberately loose lower bounds (a sleep of 20 ms must attribute at
// least ~10 ms to its state) so scheduler noise can't flake the suite,
// while still proving time lands in the right bucket.  Determinism (the
// profiler never changing output bytes) is covered in
// metrics_reconcile_test; this file owns the accounting semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "core/parallel_pipeline.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "obs/resource.hpp"
#include "sim/campaign.hpp"

namespace dtr::obs {
namespace {

using std::chrono::milliseconds;

void spin_sleep(milliseconds d) { std::this_thread::sleep_for(d); }

TEST(ThreadProfile, AttributesTimeToScopedStates) {
  Profiler profiler;
  std::thread t([&] {
    ThreadLease lease(&profiler, "stage", "t0");
    spin_sleep(milliseconds(20));  // kWorking (the default between scopes)
    {
      ProfScope park(ThreadState::kPark);
      spin_sleep(milliseconds(20));
    }
    {
      ProfScope wait(ThreadState::kQueueWait);
      spin_sleep(milliseconds(10));
    }
  });
  t.join();

  const auto summaries = profiler.thread_summaries();
  ASSERT_EQ(summaries.size(), 1u);
  const auto& s = summaries.front();
  EXPECT_EQ(s.stage, "stage");
  EXPECT_EQ(s.name, "t0");
  EXPECT_TRUE(s.finished);
  const auto sec = [&](ThreadState state) {
    return s.seconds[static_cast<std::size_t>(state)];
  };
  EXPECT_GE(sec(ThreadState::kWorking), 0.010);
  EXPECT_GE(sec(ThreadState::kPark), 0.010);
  EXPECT_GE(sec(ThreadState::kQueueWait), 0.005);
  EXPECT_EQ(sec(ThreadState::kLockWait), 0.0);
  EXPECT_GE(s.total_seconds, 0.045);

  double fraction_sum = 0;
  for (double f : s.fraction) fraction_sum += f;
  EXPECT_NEAR(fraction_sum, 1.0, 1e-9);
}

TEST(ThreadProfile, NestedScopesRestoreTheOuterState) {
  Profiler profiler;
  std::thread t([&] {
    ThreadLease lease(&profiler, "stage", "nested");
    ProfScope outer(ThreadState::kPark);
    spin_sleep(milliseconds(10));
    {
      ProfScope inner(ThreadState::kLockWait);
      spin_sleep(milliseconds(10));
    }
    // Back in the outer scope's state, not kWorking.
    spin_sleep(milliseconds(10));
  });
  t.join();

  const auto s = profiler.thread_summaries().front();
  const auto sec = [&](ThreadState state) {
    return s.seconds[static_cast<std::size_t>(state)];
  };
  // Park got both sides of the inner scope; lock_wait only the inside.
  EXPECT_GE(sec(ThreadState::kPark), 0.010);
  EXPECT_GE(sec(ThreadState::kLockWait), 0.005);
  EXPECT_GT(sec(ThreadState::kPark), sec(ThreadState::kLockWait));
  // Working only saw the scope-free instants around registration.
  EXPECT_LT(sec(ThreadState::kWorking), sec(ThreadState::kPark));
}

TEST(ThreadProfile, TotalsAreMonotoneWhileLive) {
  Profiler profiler;
  std::atomic<bool> stop{false};
  std::thread t([&] {
    ThreadLease lease(&profiler, "stage", "live");
    while (!stop.load()) spin_sleep(milliseconds(1));
  });
  // On a loaded host the thread may not have registered after a fixed
  // sleep, and front() of no summaries is undefined: wait for it.
  while (profiler.thread_summaries().empty()) std::this_thread::yield();
  spin_sleep(milliseconds(5));
  const auto first = profiler.thread_summaries().front();
  EXPECT_FALSE(first.finished);
  spin_sleep(milliseconds(15));
  const auto second = profiler.thread_summaries().front();
  EXPECT_GE(second.total_seconds, first.total_seconds);
  EXPECT_GT(second.total_seconds, 0.0);
  stop.store(true);
  t.join();
  const auto final_summary = profiler.thread_summaries().front();
  EXPECT_TRUE(final_summary.finished);
  EXPECT_GE(final_summary.total_seconds, second.total_seconds);
}

TEST(Profiler, UnprofiledThreadsPayNothingAndRecordNothing) {
  // No registration: the scope is a no-op and the TLS pointer stays null.
  EXPECT_EQ(Profiler::current(), nullptr);
  {
    ProfScope scope(ThreadState::kPark);
    EXPECT_EQ(Profiler::current(), nullptr);
  }
  // A lease over a null profiler registers nothing.
  ThreadLease lease(nullptr, "stage", "none");
  EXPECT_EQ(lease.get(), nullptr);
}

TEST(Profiler, ReleaseUnbindsTheThreadLocal) {
  Profiler profiler;
  std::thread t([&] {
    ThreadProfile* profile = profiler.register_thread("stage", "a");
    EXPECT_EQ(Profiler::current(), profile);
    Profiler::release(profile);
    EXPECT_EQ(Profiler::current(), nullptr);
    // Re-registration after release works (new ledger, same thread).
    ThreadLease lease(&profiler, "stage", "b");
    EXPECT_NE(lease.get(), nullptr);
    EXPECT_NE(lease.get(), profile);
  });
  t.join();
  const auto summaries = profiler.thread_summaries();
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_TRUE(summaries[0].finished);
  EXPECT_TRUE(summaries[1].finished);
}

TEST(Profiler, CheckpointCostsAccumulateInOrder) {
  Profiler profiler;
  profiler.note_checkpoint(kHour, 0.25, 1000);
  // The null-tolerant helper forwards (and ignores a null profiler).
  note_checkpoint(&profiler, 2 * kHour, 0.5, 2000);
  note_checkpoint(nullptr, 3 * kHour, 9.0, 9000);

  const auto costs = profiler.checkpoint_costs();
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_EQ(costs[0].boundary, kHour);
  EXPECT_DOUBLE_EQ(costs[0].wall_seconds, 0.25);
  EXPECT_EQ(costs[0].bytes, 1000u);
  EXPECT_EQ(costs[1].boundary, 2 * kHour);

  const BottleneckReport report = build_bottleneck_report(profiler);
  EXPECT_DOUBLE_EQ(report.checkpoint_total_seconds, 0.75);
  ASSERT_EQ(report.checkpoints.size(), 2u);
}

TEST(BottleneckReport, NamesTheBusiestStageAndRendersValidJson) {
  Profiler profiler;
  std::thread busy([&] {
    ThreadLease lease(&profiler, "busy", "busy.0");
    spin_sleep(milliseconds(30));  // all working
  });
  std::thread idle([&] {
    ThreadLease lease(&profiler, "idle", "idle.0");
    ProfScope park(ThreadState::kPark);
    spin_sleep(milliseconds(30));
  });
  busy.join();
  idle.join();

  const BottleneckReport report = build_bottleneck_report(profiler);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.bottleneck, "busy");
  const auto& busy_stage =
      report.stages[report.stages[0].stage == "busy" ? 0 : 1];
  const auto& idle_stage =
      report.stages[report.stages[0].stage == "busy" ? 1 : 0];
  EXPECT_GT(busy_stage.utilisation, 0.5);
  EXPECT_LT(idle_stage.utilisation, 0.5);

  std::ostringstream text;
  report.render_text(text);
  EXPECT_NE(text.str().find("most saturated stage: busy"), std::string::npos);

  std::ostringstream json;
  report.render_json(json);
  EXPECT_TRUE(json_valid(json.str())) << json.str();
  EXPECT_NE(json.str().find("\"bottleneck\":\"busy\""), std::string::npos);
}

TEST(ResourceSampler, ReadsRssAndTracksInstruments) {
  EXPECT_GT(read_rss_bytes(), 0u);

  Registry registry;
  registry.counter("test.counter").inc(7);
  registry.gauge("test.gauge").set(3);

  ResourceSamplerOptions options;
  options.interval = milliseconds(5);
  options.counters = {"test.counter"};
  options.gauges = {{"test.gauge", "aliased.gauge"}};
  ResourceSampler sampler(&registry, options);
  sampler.start();
  spin_sleep(milliseconds(30));
  sampler.stop();

  const auto samples = sampler.samples();
  ASSERT_GE(samples.size(), 2u) << "5ms interval over 30ms must sample";
  const ResourceSample& last = samples.back();
  EXPECT_GT(last.rss_bytes, 0u);
  EXPECT_GT(last.wall_seconds, 0.0);
  ASSERT_EQ(last.counters.size(), 1u);
  EXPECT_EQ(last.counters[0], 7u);
  ASSERT_EQ(last.gauges.size(), 1u);
  EXPECT_EQ(last.gauges[0], 3);
  // The published proc.* gauges reflect the last sample.
  EXPECT_EQ(registry.gauge("proc.rss.bytes").value(),
            static_cast<std::int64_t>(last.rss_bytes));

  // The report carries the trajectory under the *output* gauge name.
  Profiler profiler;
  const BottleneckReport report = build_bottleneck_report(profiler, &sampler);
  ASSERT_EQ(report.resource_gauges.size(), 1u);
  EXPECT_EQ(report.resource_gauges[0], "aliased.gauge");
  EXPECT_EQ(report.resources.size(), samples.size());
  std::ostringstream json;
  report.render_json(json);
  EXPECT_TRUE(json_valid(json.str())) << json.str();
  EXPECT_NE(json.str().find("\"aliased.gauge\""), std::string::npos);
}

TEST(ResourceSampler, StopAlwaysRecordsAFinalSample) {
  ResourceSampler sampler(nullptr);  // process-only samples, default 100ms
  sampler.start();
  sampler.stop();  // stopped well before the first tick
  EXPECT_GE(sampler.samples().size(), 1u);
}

// --- Integration: the pipeline registers its real threads ---------------

sim::CampaignConfig tiny_campaign(std::uint64_t seed) {
  sim::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.duration = 2 * kHour;
  cfg.population.client_count = 40;
  cfg.catalog.file_count = 300;
  cfg.catalog.vocabulary = 120;
  return cfg;
}

TEST(ProfilerIntegration, ParallelPipelineAttributesItsThreads) {
  Profiler profiler;
  std::ostringstream xml;
  core::ParallelPipelineConfig cfg;
  cfg.workers = 3;
  cfg.xml_out = &xml;
  cfg.profiler = &profiler;
  core::ParallelCapturePipeline pipeline(cfg);

  sim::CampaignSimulator simulator(tiny_campaign(91));
  simulator.run([&](const sim::TimedFrame& f) { pipeline.push(f); });
  const core::PipelineResult result = pipeline.finish();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_GT(result.anonymised_events, 0u);

  const BottleneckReport report = build_bottleneck_report(profiler);
  // feeder + 3 workers + merge + writer all registered and closed their
  // ledgers before finish() returned.
  std::size_t workers = 0;
  bool saw_capture = false, saw_merge = false, saw_writer = false;
  for (const auto& thread : report.threads) {
    EXPECT_TRUE(thread.finished) << thread.name;
    EXPECT_GT(thread.total_seconds, 0.0) << thread.name;
    double fraction_sum = 0;
    for (double f : thread.fraction) fraction_sum += f;
    EXPECT_NEAR(fraction_sum, 1.0, 1e-9) << thread.name;
    if (thread.stage == "worker") ++workers;
    if (thread.stage == "capture") saw_capture = true;
    if (thread.stage == "merge") saw_merge = true;
    if (thread.stage == "writer") saw_writer = true;
  }
  EXPECT_EQ(workers, 3u);
  EXPECT_TRUE(saw_capture);
  EXPECT_TRUE(saw_merge);
  EXPECT_TRUE(saw_writer);
  EXPECT_FALSE(report.bottleneck.empty());

  std::ostringstream json;
  report.render_json(json);
  EXPECT_TRUE(json_valid(json.str()));
}

}  // namespace
}  // namespace dtr::obs
