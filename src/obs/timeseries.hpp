// TimeSeriesRecorder: longitudinal telemetry over simulated time.
//
// The paper's headline figures are *time series* (Figure 2's losses per
// second, weekly query-volume tables), not point measurements.  PR 1's
// Registry answers "what are the counters now"; this recorder subscribes to
// the interval tick (driven by simulated frame/event timestamps, so output
// is byte-reproducible) and stores one measured Snapshot per interval
// boundary, from which it derives per-interval rates:
//
//   * counters   -> value + delta since the previous sample,
//   * gauges     -> value,
//   * histograms -> count, count delta, and p50/p95/p99 via
//                   HistogramSnapshot::quantile.
//
// Determinism contract: the recorder samples Registry::measured_snapshot(),
// so two runs with the same seed and interval produce byte-identical
// JSONL/CSV files, and every worker count produces identical counter
// *series* — provided the runner quiesces the pipeline before each sample
// (CampaignRunner::run flushes the pipeline at every boundary).  Which
// instruments that view holds is declared where each one is registered
// (obs::Determinism).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace dtr::obs {

class TimeSeriesRecorder {
 public:
  /// The registry must outlive the recorder.  Sampling starts at
  /// `interval` (the first boundary; 0 means one second) — time 0 is the
  /// capture start.
  TimeSeriesRecorder(const Registry& registry, SimTime interval);

  /// True once `now` has reached the next boundary: the driver should
  /// quiesce the pipeline, then call sample() while due() holds.
  [[nodiscard]] bool due(SimTime now) const { return now >= next_; }
  [[nodiscard]] SimTime next_sample_time() const { return next_; }

  /// Record the sample for the current boundary and advance one interval.
  void sample();

  /// Record every remaining boundary up to and including `end` — the
  /// end-of-run tail (call after the pipeline has drained).
  void finish(SimTime end);

  struct Sample {
    /// Boundary time.  The driver samples when the first frame at or past
    /// the boundary shows up, so this covers frames in [time - interval,
    /// time) — a frame stamped exactly at the boundary lands in the next
    /// interval.
    SimTime time = 0;
    Snapshot snapshot;
  };

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

  /// Derived per-interval increments of one counter, one entry per sample:
  /// (boundary time, delta since the previous sample).
  [[nodiscard]] std::vector<std::pair<SimTime, std::uint64_t>> counter_deltas(
      const std::string& name) const;

  /// One JSON object per sample:
  ///   {"t": <seconds>, "counters": {"name": {"v": total, "d": delta}},
  ///    "gauges": {"name": value},
  ///    "histograms": {"name": {"count": n, "d": dn, "p50": ..,
  ///                            "p95": .., "p99": ..}}}
  /// Keys sorted, shortest round-trip doubles — byte-reproducible.
  void write_jsonl(std::ostream& out) const;

  /// Wide CSV: column union over all samples; counters emit `name` and
  /// `name.delta`, gauges `name`, histograms `name.count`,
  /// `name.count.delta`, `name.p50`, `name.p95` and `name.p99`.
  void write_csv(std::ostream& out) const;

  /// Checkpoint codec: boundary cursor and every sample.  The interval is
  /// rebuilt from the config, not serialized.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

 private:
  const Registry& registry_;
  SimTime interval_;
  SimTime next_;
  std::vector<Sample> samples_;
};

}  // namespace dtr::obs
