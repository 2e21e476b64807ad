// Process resource accounting for long captures: RSS, allocation totals,
// and a background sampler that turns them (plus selected queue/buffer
// gauges) into a wall-clock trajectory.
//
// The paper's ten-week campaign lives or dies on the capture box's memory
// budget (ROADMAP item 3 targets ~90M clients); the distributed-honeypots
// companion paper makes the same point per vantage.  Until now the tree
// never read RSS at all — this module reads it from /proc/self/statm
// (resident pages x page size) with a getrusage(RUSAGE_SELF) peak-RSS
// fallback for hosts without procfs.
//
// Allocation totals come from global operator-new counters defined here, so
// the CLI and donkeybench share one definition.  The counters only tick in
// binaries that compile obs/alloc_counting.hpp into exactly one
// translation unit — everywhere else allocation_count() reads zero.
//
// Determinism contract: the sampler runs on *wall* time and publishes only
// operational proc.* gauges, which neither the series nor a checkpoint
// records — a profiled run's series/XML/checkpoint bytes match an
// unprofiled run's.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace dtr::obs {

/// Current resident set size in bytes: /proc/self/statm when available,
/// otherwise getrusage peak RSS (a monotone over-estimate), otherwise 0.
std::uint64_t read_rss_bytes();

/// Peak resident set size in bytes via getrusage(RUSAGE_SELF); 0 on error.
std::uint64_t read_peak_rss_bytes();

namespace detail {
/// Ticked by the replacement operator new in obs/alloc_counting.hpp.
extern std::atomic<std::uint64_t> g_alloc_count;
extern std::atomic<std::uint64_t> g_alloc_bytes;
}  // namespace detail

/// Total operator-new calls / requested bytes since process start.  Zero
/// unless the binary compiled obs/alloc_counting.hpp into one TU.
std::uint64_t allocation_count();
std::uint64_t allocation_bytes();

/// A registry gauge to track, with the name it should carry in the report
/// (e.g. the kernel buffer publishes "capture.occupancy"; the report
/// records it as "capture.buffer.occupancy").
struct TrackedGauge {
  std::string name;  ///< registry name
  std::string as;    ///< output name (empty = same as `name`)
};

struct ResourceSamplerOptions {
  /// Wall-clock sampling interval.
  std::chrono::milliseconds interval{100};
  /// Registry counters whose running totals join each sample (throughput
  /// trajectories: "pipeline.messages", ...).  Read by name; a name not
  /// registered yet reads 0.
  std::vector<std::string> counters;
  /// Registry gauges to track (occupancy trajectories).
  std::vector<TrackedGauge> gauges;
  /// Publish proc.rss.bytes / proc.rss.peak.bytes / proc.alloc.count /
  /// proc.alloc.bytes gauges into the registry.
  bool publish_gauges = true;
};

struct ResourceSample {
  double wall_seconds = 0;  ///< since sampler start
  std::uint64_t rss_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::vector<std::uint64_t> counters;  ///< parallel to options().counters
  std::vector<std::int64_t> gauges;     ///< parallel to options().gauges
};

/// Background wall-clock sampler.  start() registers the proc.* gauges and
/// launches the thread; stop() takes a final sample and joins.  The
/// registry may be null (process-only samples).
class ResourceSampler {
 public:
  explicit ResourceSampler(Registry* registry,
                           ResourceSamplerOptions options = {});
  ~ResourceSampler();

  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  void start();
  void stop();

  /// Take one sample synchronously (also what the thread does each tick).
  void sample_now();

  [[nodiscard]] std::vector<ResourceSample> samples() const;
  [[nodiscard]] const ResourceSamplerOptions& options() const {
    return options_;
  }

 private:
  void run();
  void resolve_instruments();

  Registry* registry_;
  ResourceSamplerOptions options_;

  Gauge* rss_gauge_ = nullptr;
  Gauge* peak_rss_gauge_ = nullptr;
  Gauge* alloc_count_gauge_ = nullptr;
  Gauge* alloc_bytes_gauge_ = nullptr;
  bool resolved_ = false;

  std::chrono::steady_clock::time_point started_at_{};
  std::thread thread_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::vector<ResourceSample> samples_;
};

}  // namespace dtr::obs
