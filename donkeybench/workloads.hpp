// donkeybench workloads: what each one feeds the program, how the timed
// passes run it, and the pipeline and campaign helpers the traced run
// shares.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/campaign_runner.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/pipeline.hpp"
#include "sim/background.hpp"
#include "sim/campaign.hpp"

namespace donkeybench {

namespace core = dtr::core;
namespace obs = dtr::obs;
namespace sim = dtr::sim;
using dtr::SimTime;

enum class Scale { kFull, kSmoke };

/// Workload names, in the order the suite runs them.
inline constexpr const char* kWorkloads[] = {"mirror_bg", "udp_dense",
                                             "campaign_flash",
                                             "analyze_readback"};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;  // measuring time of the timed or traced phase
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string cli;      // the donkeytrace binary
  std::string workdir;  // private work directory, removed at exit
  std::size_t workers = 1;  // parallel workers: max(1, nproc - 2)
};

/// Everything one invocation measured and checked.
struct RunResult {
  MetricSet metrics;
  Checks checks;
  Tracer tracer;
  /// Workload parameters, for the stamp.
  std::vector<std::pair<std::string, std::string>> params;
};

/// The simulated campaign behind a workload.  Its eDonkey traffic is the
/// same at every --seed (see campaign_spec() in workloads.cpp).
struct CampaignSpec {
  sim::CampaignConfig campaign;
  std::optional<sim::BackgroundConfig> background;
};

CampaignSpec campaign_spec(const Options& opt);

/// The CampaignRunner set-up of the workload's campaign, without outputs;
/// it checkpoints every 12 simulated hours.  For the operator
/// workloads it is the campaign `donkeytrace campaign` runs.
core::RunnerConfig runner_config(const Options& opt, std::size_t workers);

/// A materialised mirror stream: campaign and background frames merged in
/// time order, the way the capture point sees them.
struct Corpus {
  std::vector<sim::TimedFrame> frames;
  std::uint64_t bytes = 0;
};

Corpus build_corpus(const CampaignSpec& spec);

/// One closed-loop pass of a corpus through a pipeline: a single feeder
/// pushes as fast as push() accepts.
struct PassResult {
  double seconds = 0;
  std::uint64_t messages = 0;
  std::uint64_t allocs = 0;
  std::string xml;  // the dataset the pass wrote
  std::string error;
};

PassResult run_pass(const Corpus& corpus, std::size_t workers,
                    obs::Registry* metrics = nullptr,
                    obs::Profiler* profiler = nullptr,
                    std::size_t xml_reserve = 0);

/// Check a workload's output against the digest and message count pinned
/// for its scale.
void check_pin(const Options& opt, const std::string& sha,
               std::uint64_t messages, RunResult& out);

/// Set-up, timed passes and checks: the end-to-end metrics.
void run_timed(const Options& opt, RunResult& out);

/// Set-up, then per-layer timings of the workload's input: the per-layer
/// metrics (layers.cpp).
void run_traced(const Options& opt, RunResult& out);

/// Checkpoint snapshots in `dir`, in boundary order.
std::vector<std::filesystem::path> snapshots_in(
    const std::filesystem::path& dir);

}  // namespace donkeybench
