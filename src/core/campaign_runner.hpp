// CampaignRunner: the whole measurement in one call.
//
//   simulator (server + clients)  ->  mirror  ->  [+ background traffic]
//   ->  kernel capture buffer (losses)  ->  pipeline (decode, anonymise,
//   accumulate, optional XML/pcap)  ->  CampaignReport
//
// This is the facade the examples and the figure benches use.
#pragma once

#include <optional>
#include <string>

#include "analysis/campaign_stats.hpp"
#include "analysis/report.hpp"
#include "capture/engine.hpp"
#include "core/parallel_pipeline.hpp"
#include "obs/timeseries.hpp"
#include "sim/background.hpp"
#include "sim/campaign.hpp"
#include "xmlio/chunked.hpp"

namespace dtr::core {

struct RunnerConfig {
  sim::CampaignConfig campaign;
  capture::KernelBufferConfig buffer;
  std::optional<sim::BackgroundConfig> background;  // engaged = mirror carries
                                                    // the TCP half too
  std::string pcap_path;     // non-empty = dump surviving frames to pcap
  /// Dataset destination (null = none), any std::ostream: the CLI passes
  /// the dataset file.  The runner streams the dataset here as it is
  /// written; with checkpoints it also journals it in `checkpoint_dir`, and
  /// a resume first writes the journal's verified prefix here.
  std::ostream* xml_out = nullptr;
  /// Compress the dataset as it streams (the paper's footnote-3 economics
  /// at campaign scale): `xml_out` receives the chunked DTZCHNK1 container
  /// instead of plain XML, produced by a pool of xmlio::kCompressThreads
  /// compressors that reassembles frames in chunk order — the container
  /// bytes match an inline compressor's, and decompress to exactly the
  /// bytes an uncompressed run writes.  `compress_chunk_bytes` fixes the
  /// chunk grid, so it IS part of the checkpoint fingerprint (a resumed
  /// run must keep cutting chunks on the same grid).
  bool compress = false;
  std::size_t compress_chunk_bytes = xmlio::kDefaultChunkBytes;
  /// Extra streaming consumer of the anonymised events, called on the
  /// merge thread in event order (see ParallelPipelineConfig::extra_sink).
  std::function<void(const anon::AnonEvent&)> extra_sink;
  /// Decode worker threads of the ParallelCapturePipeline; 0 and 1 both
  /// mean one.  The output is the same for every count; the checkpoint is
  /// not (a snapshot resumes only at the worker count that wrote it).
  std::size_t workers = 0;
  /// Optional metrics registry: when set, the capture buffer, the server
  /// index, and every pipeline stage register their instruments there.
  obs::Registry* metrics = nullptr;
  /// Optional structured logger, handed to the capture buffer, the server
  /// and every pipeline stage (must outlive run(); may be null).
  obs::Logger* log = nullptr;
  /// Optional flight recorder for post-mortem event dumps (must outlive
  /// run(); may be null).
  obs::FlightRecorder* flight = nullptr;
  /// Optional pipeline profiler (must outlive run(); may be null).  Handed
  /// to the pipeline so its threads attribute their time, and fed the wall
  /// cost + size of every checkpoint snapshot.  Deliberately NOT part of
  /// the checkpoint fingerprint: a profiled run may resume an unprofiled
  /// snapshot and vice versa, with byte-identical outputs.
  obs::Profiler* profiler = nullptr;
  /// Optional time-series recorder sampling `metrics` at its interval
  /// boundaries (simulated time).  Must be built over the same registry as
  /// `metrics`.  The runner quiesces the pipeline before every sample, so
  /// interval counters are exact and the same at every worker count, and
  /// calls finish() on it after the pipeline drains.
  obs::TimeSeriesRecorder* series = nullptr;
  /// Checkpoint/resume — the crash-safe long-campaign story (the paper's
  /// horizon is ten weeks).  When `checkpoint_dir` is non-empty the runner
  /// quiesces the pipeline at every `checkpoint_interval` boundary of
  /// simulated time and atomically writes a full snapshot (simulator +
  /// server index, capture buffer and loss series, anonymiser tables,
  /// decoder, metrics, time series, dataset journal mark, pcap cursor) into
  /// the directory, one file per boundary (checkpoint_file_name()).  With a
  /// dataset the directory also holds the dataset journal
  /// (kJournalFileName): every byte written to `xml_out`, which each
  /// snapshot marks by length and MD5 instead of copying.  When
  /// `resume_from` names a snapshot file, the run continues from that
  /// boundary, reading the journal beside the snapshot; the final outputs
  /// (XML dataset, series JSONL/CSV, pcap, report counters) are
  /// byte-identical to an uninterrupted run's.  Resuming requires the same
  /// campaign/buffer config, worker count and attached outputs as the run
  /// that wrote the snapshot.
  std::string checkpoint_dir;
  SimTime checkpoint_interval = kWeek;
  std::string resume_from;
  /// Per-snapshot observer: called after the snapshot at every
  /// `checkpoint_interval` boundary of a checkpointing run, with its wall
  /// cost and on-disk size.  Purely observational: never affects output
  /// bytes or the fingerprint.
  struct BoundarySample {
    SimTime boundary = 0;
    double checkpoint_wall_s = 0.0;
    std::uint64_t checkpoint_bytes = 0;  ///< 0 when the write failed
  };
  std::function<void(const BoundarySample&)> boundary_sink;

  /// Convenience: a small config that runs in well under a second.
  static RunnerConfig tiny(std::uint64_t seed = 42);
};

/// Snapshot file name for a boundary: "checkpoint-<zero-padded time>.ckpt"
/// (fixed width so lexicographic order equals time order).
std::string checkpoint_file_name(SimTime boundary);

struct CampaignReport {
  sim::GroundTruth truth;
  std::uint64_t frames_captured = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t buffer_high_water = 0;  // peak kernel-buffer occupancy
  std::vector<capture::LossPoint> loss_series;
  PipelineResult pipeline;
};

/// Assemble the figure-style scenario summary (churn timeline, loss curve,
/// pollution hit-rate) for a finished run.  `scenario` is the runner's
/// `simulator().scenario()`; returns nullopt when it is null (steady or no
/// scenario — there is nothing hostile to report).
std::optional<analysis::ScenarioSummary> build_scenario_summary(
    const sim::Scenario* scenario, const CampaignReport& report);

class CampaignRunner {
 public:
  explicit CampaignRunner(const RunnerConfig& config);

  /// Run everything; blocks until the pipeline has drained.
  CampaignReport run();

  /// Valid after run().
  [[nodiscard]] const analysis::CampaignStats& stats() const {
    return pipeline_->stats();
  }
  [[nodiscard]] const sim::CampaignSimulator& simulator() const {
    return simulator_;
  }

 private:
  RunnerConfig config_;
  sim::CampaignSimulator simulator_;
  std::unique_ptr<net::PcapWriter> pcap_;
  std::unique_ptr<ParallelCapturePipeline> pipeline_;
};

}  // namespace dtr::core
