// Integration tests: the threaded pipeline, the CampaignRunner facade
// (simulate -> capture -> decode -> anonymise -> analyse -> XML), and
// end-to-end consistency with ground truth.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "anon/anonymiser.hpp"
#include "core/campaign_runner.hpp"
#include "core/parallel_pipeline.hpp"
#include "decode/decoder.hpp"
#include "xmlio/schema.hpp"

namespace dtr::core {
namespace {

// ---------------------------------------------------------------------------
// End-to-end campaign
// ---------------------------------------------------------------------------

class EndToEnd : public ::testing::Test {
 protected:
  static RunnerConfig config() {
    RunnerConfig cfg = RunnerConfig::tiny(21);
    cfg.buffer.capacity = 1 << 20;   // no capture losses in this test
    cfg.buffer.stall_per_hour = 0.0;
    cfg.buffer.drain_rate = 1e9;
    return cfg;
  }
};

TEST_F(EndToEnd, PipelineSeesEverythingTheSimulatorSent) {
  RunnerConfig cfg = config();
  CampaignRunner runner(cfg);
  CampaignReport report = runner.run();

  EXPECT_EQ(report.frames_lost, 0u);
  EXPECT_EQ(report.frames_captured, report.truth.frames);
  EXPECT_EQ(report.pipeline.decode.frames, report.truth.frames);
  EXPECT_EQ(report.pipeline.decode.udp_fragments, report.truth.ip_fragments);

  // Decoded messages: everything except (some of) the faulted datagrams.
  EXPECT_GE(report.pipeline.decode.decoded,
            report.truth.total_messages() - report.truth.faulted_datagrams);
  EXPECT_LE(report.pipeline.decode.decoded, report.truth.total_messages());
  EXPECT_EQ(report.pipeline.anonymised_events, report.pipeline.decode.decoded);
}

TEST_F(EndToEnd, StatsMatchAnonymisedStream) {
  CampaignRunner runner(config());
  CampaignReport report = runner.run();
  const analysis::CampaignStats& stats = runner.stats();

  EXPECT_EQ(stats.messages(), report.pipeline.anonymised_events);
  EXPECT_GT(stats.queries(), 0u);
  EXPECT_GT(stats.answers(), 0u);
  // Distinct clients at the analysis level == the anonymiser's table size.
  EXPECT_EQ(stats.distinct_clients(), report.pipeline.distinct_clients);
  EXPECT_GT(stats.provider_relations(), 0u);
  EXPECT_GT(stats.asker_relations(), 0u);
  // The size distribution has data (publishes carry sizes).
  EXPECT_GT(stats.size_distribution().total(), 0u);
}

TEST_F(EndToEnd, DistinctClientsBoundedByPopulationIdentifiers) {
  CampaignRunner runner(config());
  CampaignReport report = runner.run();
  // Every identifier is either a client IP or a server-assigned low ID, so
  // distinct anonymised clients <= 2 * population.
  EXPECT_GT(report.pipeline.distinct_clients, 0u);
  EXPECT_LE(report.pipeline.distinct_clients,
            2ull * runner.simulator().population().size());
}

TEST_F(EndToEnd, XmlDatasetRoundtripsToIdenticalStats) {
  std::ostringstream xml;
  RunnerConfig cfg = config();
  cfg.xml_out = &xml;
  CampaignRunner runner(cfg);
  CampaignReport report = runner.run();
  ASSERT_EQ(report.pipeline.xml_events, report.pipeline.anonymised_events);

  // Re-read the dataset like a downstream user would and recompute stats.
  std::istringstream in(xml.str());
  xmlio::DatasetReader reader(in);
  analysis::CampaignStats replayed;
  std::uint64_t events = 0;
  while (auto ev = reader.next()) {
    replayed.consume(*ev);
    ++events;
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(events, report.pipeline.xml_events);

  const analysis::CampaignStats& live = runner.stats();
  EXPECT_EQ(replayed.messages(), live.messages());
  EXPECT_EQ(replayed.queries(), live.queries());
  EXPECT_EQ(replayed.distinct_clients(), live.distinct_clients());
  EXPECT_EQ(replayed.provider_relations(), live.provider_relations());
  EXPECT_EQ(replayed.asker_relations(), live.asker_relations());
  EXPECT_EQ(replayed.size_distribution().total(),
            live.size_distribution().total());
}

TEST_F(EndToEnd, AnonymisationIsConsistentAcrossTheDataset) {
  RunnerConfig cfg = config();
  std::vector<anon::AnonClientId> peers;  // one per event, in event order
  cfg.extra_sink = [&](const anon::AnonEvent& ev) { peers.push_back(ev.peer); };
  CampaignRunner runner(cfg);
  const CampaignReport report = runner.run();

  // Peers are dense 0..N-1.
  ASSERT_FALSE(peers.empty());
  EXPECT_EQ(peers.size(), report.pipeline.anonymised_events);
  const std::uint64_t n = report.pipeline.distinct_clients;
  for (const anon::AnonClientId peer : peers) {
    EXPECT_LT(peer, n);
  }
}

TEST_F(EndToEnd, CaptureLossesAppearUnderPressure) {
  RunnerConfig cfg = RunnerConfig::tiny(22);
  cfg.campaign.flash_crowd_fraction = 0.7;  // concentrate the traffic
  cfg.campaign.flash_crowd_count = 1;
  cfg.campaign.flash_crowd_width = 30 * kSecond;
  cfg.buffer.capacity = 64;
  cfg.buffer.drain_rate = 50.0;  // overwhelmed during the crowd
  cfg.buffer.stall_per_hour = 0.0;
  CampaignRunner runner(cfg);
  CampaignReport report = runner.run();
  EXPECT_GT(report.frames_lost, 0u);
  EXPECT_FALSE(report.loss_series.empty());
  std::uint64_t series_total = 0;
  for (const auto& p : report.loss_series) series_total += p.lost;
  EXPECT_EQ(series_total, report.frames_lost);
  // What the pipeline decoded is exactly what survived capture.
  EXPECT_EQ(report.pipeline.decode.frames, report.frames_captured);
}

TEST_F(EndToEnd, BackgroundTrafficIsCapturedButNotDecoded) {
  RunnerConfig cfg = config();
  sim::BackgroundConfig bg;
  bg.syn_per_minute = 500;
  bg.data_rate_quiet = 20;
  bg.data_rate_burst = 100;
  cfg.background = bg;
  CampaignRunner runner(cfg);
  CampaignReport report = runner.run();
  EXPECT_GT(report.pipeline.decode.tcp_packets, 0u);
  EXPECT_GT(report.frames_captured, report.truth.frames)
      << "mirror carries more than the eDonkey traffic";
  // eDonkey decoding is unaffected by the TCP half.
  EXPECT_GE(report.pipeline.decode.decoded,
            report.truth.total_messages() - report.truth.faulted_datagrams);
}

TEST_F(EndToEnd, DeterministicReports) {
  CampaignRunner a(config()), b(config());
  CampaignReport ra = a.run(), rb = b.run();
  EXPECT_EQ(ra.truth.total_messages(), rb.truth.total_messages());
  EXPECT_EQ(ra.pipeline.decode.decoded, rb.pipeline.decode.decoded);
  EXPECT_EQ(ra.pipeline.distinct_clients, rb.pipeline.distinct_clients);
  EXPECT_EQ(ra.pipeline.distinct_files, rb.pipeline.distinct_files);
  EXPECT_EQ(a.stats().provider_relations(), b.stats().provider_relations());
}

TEST_F(EndToEnd, PcapDumpReplaysThroughOfflineDecoder) {
  std::string path = (std::filesystem::temp_directory_path() /
                      "dtr_pipeline_test.pcap")
                         .string();
  RunnerConfig cfg = config();
  cfg.pcap_path = path;
  CampaignRunner runner(cfg);
  CampaignReport live = runner.run();

  // Offline pass: read the pcap, decode again, expect identical counts.
  net::PcapReader reader(path);
  ASSERT_TRUE(reader.ok());
  std::uint64_t decoded = 0;
  decode::FrameDecoder dec(cfg.campaign.server_ip, cfg.campaign.server_port,
                           [&](decode::DecodedMessage&&) { ++decoded; });
  while (auto rec = reader.next()) {
    dec.push(sim::TimedFrame{rec->timestamp, rec->data});
  }
  EXPECT_EQ(decoded, live.pipeline.decode.decoded);
  EXPECT_EQ(dec.stats().frames, live.pipeline.decode.frames);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Figure 3 inside the pipeline
// ---------------------------------------------------------------------------

TEST(PipelineFileStore, PollutersSkewNaiveBucketsEndToEnd) {
  // Decode one polluted campaign once and anonymise its messages into two
  // standalone stores differing only in the fileID index byte pair: the
  // naive (0, 1) store must develop hot buckets 0/256.  The pipeline,
  // fed the same frames, must build exactly the (5, 11) store.
  sim::CampaignConfig sim_cfg = RunnerConfig::tiny(33).campaign;
  sim_cfg.population.polluter_fraction = 0.10;  // amplify for a tiny run
  sim_cfg.population.casual_fraction = 0.70;

  anon::HashClientTable naive_clients, fixed_clients;
  anon::BucketedFileIdStore naive(0, 1), fixed(5, 11);
  anon::Anonymiser naive_anon(naive_clients, naive);
  anon::Anonymiser fixed_anon(fixed_clients, fixed);
  decode::FrameDecoder decoder(
      sim_cfg.server_ip, sim_cfg.server_port,
      [&](decode::DecodedMessage&& msg) {
        naive_anon.anonymise(msg.time, msg.src_ip, msg.message);
        fixed_anon.anonymise(msg.time, msg.src_ip, msg.message);
      });

  ParallelPipelineConfig cfg;
  cfg.server_ip = sim_cfg.server_ip;
  cfg.server_port = sim_cfg.server_port;
  ParallelCapturePipeline pipeline(cfg);
  sim::CampaignSimulator simulator(sim_cfg);
  SimTime last = 0;
  simulator.run([&](const sim::TimedFrame& f) {
    decoder.push(f);
    pipeline.push(f);
    last = f.time;
  });
  decoder.finish(last);
  pipeline.finish();

  auto hot = [](const anon::BucketedFileIdStore& store) {
    return store.bucket_size(0) + store.bucket_size(256);
  };
  ASSERT_GT(fixed.distinct(), 0u);
  EXPECT_EQ(naive.distinct(), fixed.distinct());
  EXPECT_GT(hot(naive), hot(fixed) * 10)
      << "first-two-byte indexing must concentrate forged IDs";

  const anon::BucketedFileIdStore& piped = pipeline.fileid_store();
  EXPECT_EQ(piped.distinct(), fixed.distinct());
  EXPECT_EQ(piped.bucket_size(0), fixed.bucket_size(0));
  EXPECT_EQ(piped.bucket_size(256), fixed.bucket_size(256));
}

}  // namespace
}  // namespace dtr::core
