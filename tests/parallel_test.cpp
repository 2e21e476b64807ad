// The capture pipeline must be *observationally identical* to the
// single-threaded reference (reference_pipeline.hpp): same anonymised
// tokens, same statistics, same XML — for any worker count and thread
// interleaving.  That is the whole point of the partition / sequence /
// merge construction.
#include <gtest/gtest.h>

#include <sstream>

#include "core/parallel_pipeline.hpp"
#include "hostile_frames.hpp"
#include "reference_pipeline.hpp"
#include "sim/campaign.hpp"

namespace dtr::core {
namespace {

sim::CampaignConfig campaign_config(std::uint64_t seed) {
  sim::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.duration = 4 * kHour;
  cfg.population.client_count = 80;
  cfg.catalog.file_count = 500;
  cfg.catalog.vocabulary = 150;
  cfg.population.collector_share_max = 900;
  cfg.population.scanner_ask_max = 400;
  cfg.mtu = 900;  // force some fragmentation: reassembly must still work
  return cfg;
}

struct RunOutput {
  PipelineResult result;
  std::string xml;
  std::uint64_t provider_relations;
  std::uint64_t asker_relations;
  std::uint64_t messages;
};

/// The worker counts every differential runs: one (the default), powers
/// of two, and odd counts whose flow hash spreads unevenly.
constexpr std::size_t kWorkerCounts[] = {1, 2, 3, 4, 7};

RunOutput run_reference(const sim::CampaignConfig& cfg,
                        const std::vector<sim::TimedFrame>* corpus = nullptr) {
  std::ostringstream xml;
  ReferencePipeline pipeline(cfg.server_ip, cfg.server_port, &xml);
  testing_frames::feed(cfg, corpus,
                       [&](const sim::TimedFrame& f) { pipeline.push(f); });
  RunOutput out;
  out.result = pipeline.finish();
  out.xml = xml.str();
  out.provider_relations = pipeline.stats().provider_relations();
  out.asker_relations = pipeline.stats().asker_relations();
  out.messages = pipeline.stats().messages();
  return out;
}

RunOutput run_parallel(const sim::CampaignConfig& cfg, std::size_t workers,
                       const std::vector<sim::TimedFrame>* corpus = nullptr) {
  std::ostringstream xml;
  ParallelPipelineConfig pc;
  pc.server_ip = cfg.server_ip;
  pc.server_port = cfg.server_port;
  pc.workers = workers;
  pc.xml_out = &xml;
  ParallelCapturePipeline pipeline(pc);
  testing_frames::feed(cfg, corpus,
                       [&](const sim::TimedFrame& f) { pipeline.push(f); });
  RunOutput out;
  out.result = pipeline.finish();
  out.xml = xml.str();
  out.provider_relations = pipeline.stats().provider_relations();
  out.asker_relations = pipeline.stats().asker_relations();
  out.messages = pipeline.stats().messages();
  return out;
}

void expect_identical(const RunOutput& a, const RunOutput& b,
                      const char* label) {
  // Every DecodeStats field: frames settled on the pipeline's feeder and
  // frames decoded by its workers must add up to the reference decoder's.
  EXPECT_EQ(a.result.decode, b.result.decode) << label;
  EXPECT_EQ(a.result.distinct_clients, b.result.distinct_clients) << label;
  EXPECT_EQ(a.result.distinct_files, b.result.distinct_files) << label;
  EXPECT_EQ(a.result.anonymised_events, b.result.anonymised_events) << label;
  EXPECT_EQ(a.messages, b.messages) << label;
  EXPECT_EQ(a.provider_relations, b.provider_relations) << label;
  EXPECT_EQ(a.asker_relations, b.asker_relations) << label;
  // The strongest check: the released dataset is byte-identical, which
  // pins the anonymisation order, not just the aggregate counts.
  EXPECT_EQ(a.xml, b.xml) << label;
}

class WorkerCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkerCounts, PipelineMatchesReferenceExactly) {
  sim::CampaignConfig cfg = campaign_config(51);
  RunOutput reference = run_reference(cfg);
  RunOutput parallel = run_parallel(cfg, GetParam());
  expect_identical(reference, parallel, "workers");
  EXPECT_GT(reference.result.decode.udp_fragments, 0u)
      << "this test must exercise the partitioned reassembly path";
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCounts,
                         ::testing::ValuesIn(kWorkerCounts));

// The feeder settles every non-UDP frame itself and routes only UDP: over a
// stream of background TCP and crafted frames breaking each header rule,
// its counts plus the workers' must equal the reference decoder's, field
// by field, and the dataset must not move.
TEST(Parallel, HostileFramesMatchReferenceExactly) {
  const sim::CampaignConfig cfg = campaign_config(54);
  const std::vector<sim::TimedFrame> corpus =
      testing_frames::hostile_corpus(cfg);
  const RunOutput reference = run_reference(cfg, &corpus);
  const decode::DecodeStats& d = reference.result.decode;
  EXPECT_EQ(d.frames, corpus.size());
  EXPECT_GT(d.non_ipv4_frames, 0u);
  EXPECT_GT(d.bad_ip_packets, 0u);
  EXPECT_GT(d.tcp_packets, 0u);
  EXPECT_GT(d.other_ip_packets, 0u);
  EXPECT_GT(d.udp_fragments, 0u);
  for (std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    expect_identical(reference, run_parallel(cfg, workers, &corpus),
                     "hostile");
  }
}

// Every ID in this corpus first appears where a worker cannot know it yet,
// so its resolve pass leaves holes and the merger must fill them in the
// serial visit order; one-frame micro-batches multiply the interleavings.
TEST(Parallel, HoleFillingMatchesReferenceExactly) {
  const sim::CampaignConfig cfg = campaign_config(55);
  const std::vector<sim::TimedFrame> corpus =
      testing_frames::hole_corpus(cfg.server_ip, cfg.server_port);
  const RunOutput reference = run_reference(cfg, &corpus);
  EXPECT_EQ(reference.result.anonymised_events, corpus.size())
      << "every crafted frame must decode to one message";
  for (std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    expect_identical(reference, run_parallel(cfg, workers, &corpus), "holes");
  }
}

TEST(Parallel, RepeatedRunsAreDeterministic) {
  sim::CampaignConfig cfg = campaign_config(52);
  RunOutput a = run_parallel(cfg, 4);
  RunOutput b = run_parallel(cfg, 4);
  expect_identical(a, b, "repeat");
}

TEST(Parallel, ExtraSinkSeesEventsInOrder) {
  sim::CampaignConfig cfg = campaign_config(53);
  sim::CampaignSimulator simulator(cfg);
  ParallelPipelineConfig pc;
  pc.server_ip = cfg.server_ip;
  pc.server_port = cfg.server_port;
  pc.workers = 3;
  SimTime last = 0;
  bool ordered = true;
  std::uint64_t sunk = 0;
  pc.extra_sink = [&](const anon::AnonEvent& ev) {
    ordered = ordered && ev.time >= last;
    last = ev.time;
    ++sunk;
  };
  ParallelCapturePipeline pipeline(pc);
  simulator.run([&](const sim::TimedFrame& f) { pipeline.push(f); });
  PipelineResult result = pipeline.finish();
  EXPECT_TRUE(ordered) << "merge stage must restore capture order";
  EXPECT_EQ(sunk, result.anonymised_events);
}

TEST(Parallel, ZeroWorkersClampsToOne) {
  ParallelPipelineConfig pc;
  EXPECT_EQ(pc.workers, 1u) << "the default config runs one worker";
  pc.workers = 0;
  ParallelCapturePipeline pipeline(pc);
  EXPECT_EQ(pipeline.workers(), 1u);
  pipeline.finish();
}

}  // namespace
}  // namespace dtr::core
