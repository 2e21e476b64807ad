// capture_replay — decoupling capture from analysis via pcap.
//
// Stage 1 simulates a campaign and dumps the *captured* (post-loss) frames
// to a standard pcap file, like the paper's capture machine would.
// Stage 2 replays the file through the same capture pipeline, as a
// researcher without access to the live server would, and verifies that
// the replay writes the live dataset byte for byte.
//
//   ./capture_replay [seed] [pcap-path]
#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/donkeytrace.hpp"

int main(int argc, char** argv) {
  using namespace dtr;

  std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;
  std::string path = argc > 2 ? argv[2] : "capture_replay.pcap";

  // --- Stage 1: live capture ------------------------------------------------
  core::RunnerConfig cfg = core::RunnerConfig::tiny(seed);
  cfg.pcap_path = path;
  std::ostringstream live_xml;
  cfg.xml_out = &live_xml;
  core::CampaignRunner runner(cfg);
  core::CampaignReport live = runner.run();

  std::cout << "Stage 1 (live): " << with_thousands(live.frames_captured)
            << " frames captured (" << live.frames_lost << " lost) -> "
            << path << "\n";
  std::cout << "  decoded " << with_thousands(live.pipeline.decode.decoded)
            << " messages, " << live.pipeline.distinct_clients
            << " distinct clients, " << live.pipeline.distinct_files
            << " distinct fileIDs\n";

  // --- Stage 2: offline replay ----------------------------------------------
  net::PcapReader reader(path);
  if (!reader.ok()) {
    std::cerr << "cannot read " << path << "\n";
    return 1;
  }

  std::ostringstream replay_xml;
  core::ParallelPipelineConfig replay_cfg;
  replay_cfg.server_ip = cfg.campaign.server_ip;
  replay_cfg.server_port = cfg.campaign.server_port;
  replay_cfg.xml_out = &replay_xml;
  core::ParallelCapturePipeline pipeline(replay_cfg);

  std::uint64_t frames = 0;
  while (auto rec = reader.next()) {
    pipeline.push(sim::TimedFrame{rec->timestamp, rec->data});
    ++frames;
  }
  const core::PipelineResult replay = pipeline.finish();

  std::cout << "Stage 2 (replay): " << with_thousands(frames) << " frames, "
            << with_thousands(replay.decode.decoded) << " messages decoded, "
            << replay.distinct_clients << " distinct clients, "
            << replay.distinct_files << " distinct fileIDs, "
            << with_thousands(replay_xml.view().size()) << " dataset bytes\n";

  bool ok = live.pipeline.ok() && replay.ok() &&
            frames == live.frames_captured &&
            replay.decode.decoded == live.pipeline.decode.decoded &&
            replay.distinct_clients == live.pipeline.distinct_clients &&
            replay.distinct_files == live.pipeline.distinct_files &&
            replay_xml.view() == live_xml.view();
  std::cout << (ok ? "REPLAY MATCHES LIVE CAPTURE"
                   : "MISMATCH between live and replay!")
            << "\n";
  std::remove(path.c_str());
  return ok ? 0 : 1;
}
