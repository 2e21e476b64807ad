// TimeSeriesRecorder: longitudinal telemetry over simulated time.
//
// The paper's headline figures are *time series* (Figure 2's losses per
// second, weekly query-volume tables), not point measurements.  PR 1's
// Registry answers "what are the counters now"; this recorder subscribes to
// the interval tick (driven by simulated frame/event timestamps, so output
// is byte-reproducible) and stores one filtered Snapshot per interval
// boundary, from which it derives per-interval rates:
//
//   * counters   -> value + delta since the previous stored sample,
//   * gauges     -> value,
//   * histograms -> count, count delta, and p50/p95/p99 via
//                   HistogramSnapshot::quantile.
//
// Determinism contract: with the default filters, two runs with the same
// seed and interval produce byte-identical JSONL/CSV files, and every
// worker count produces identical counter *series* — provided the runner
// quiesces the pipeline before each sample (CampaignRunner::run flushes
// the pipeline at every boundary).  Wall-clock-valued
// instruments (span.* histograms) and scheduling-dependent gauges
// (pipeline.queue.*, pipeline.merge.*) are excluded by default because no
// flush can make them deterministic.
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

struct TimeSeriesOptions {
  /// Sampling interval in simulated time.
  SimTime interval = kHour;
  /// Keep only instruments whose name starts with one of these (empty =
  /// keep everything not excluded).
  std::vector<std::string> include_prefixes;
  /// Drop instruments whose name starts with one of these.  Defaults to
  /// the wall-clock / scheduling-dependent names that would break
  /// byte-reproducibility.  checkpoint.* is excluded so a resumed run's
  /// series stays byte-identical to an uninterrupted run's (checkpointing
  /// activity is operational, not part of the measured campaign);
  /// pipeline.pool.* (free-list hit/miss) and pipeline.writer.* (writer
  /// chunk shapes) depend on thread scheduling the same way queue depths
  /// do.  pipeline.batch.* stays IN the series: batch formation happens on
  /// the pushing thread from input count/time alone, so batch shapes are
  /// deterministic.  pipeline.ring.* (SPSC park counts) and anon.shard.*
  /// (fast/deferred split, per-shard occupancy) are scheduling-dependent
  /// for the same reason: how many messages take the optimistic worker
  /// path depends on thread interleaving even though the output does not.
  /// proc.* (resource-sampler RSS/allocation gauges) is wall-clock-valued
  /// and only present in profiled runs; log.suppressed depends on which
  /// sinks/levels the operator enabled — both would make a profiled or
  /// verbosely-logged run's series differ from a plain run's.
  /// writer.compress.* is only present in compressed runs (and its pool
  /// hit/miss split is scheduling-dependent); anon.table.* is the
  /// clientID table's resident footprint, a property of its page layout
  /// rather than of the measured campaign — both operational, and keeping
  /// them out lets the table layout change without moving the series.
  std::vector<std::string> exclude_prefixes = {
      "span.",           "pipeline.queue.", "pipeline.merge.",
      "pipeline.pool.",  "pipeline.writer.", "checkpoint.",
      "pipeline.ring.",  "anon.shard.",      "proc.",
      "log.",            "writer.compress.", "anon.table."};
  /// Store a sample only when some included counter changed since the last
  /// stored sample — sparse mode for long fine-grained series (Figure 2's
  /// per-second losses: almost every second is all-zero deltas).  Deltas
  /// stay exact: skipped boundaries had zero change by construction.
  bool store_only_on_change = false;
  /// Quantiles derived per histogram per sample.
  std::vector<double> quantiles = {0.5, 0.95, 0.99};
};

class TimeSeriesRecorder {
 public:
  /// The registry must outlive the recorder.  Sampling starts at
  /// `interval` (the first boundary) — time 0 is the capture start.
  explicit TimeSeriesRecorder(const Registry& registry,
                              TimeSeriesOptions options = {});

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
  [[nodiscard]] const TimeSeriesOptions& options() const { return options_; }

  /// Derived per-interval increments of one counter, one entry per stored
  /// sample: (boundary time, delta since previous stored sample).
  [[nodiscard]] std::vector<std::pair<SimTime, std::uint64_t>> counter_deltas(
      const std::string& name) const;

  /// One JSON object per stored sample:
  ///   {"t": <seconds>, "counters": {"name": {"v": total, "d": delta}},
  ///    "gauges": {"name": value},
  ///    "histograms": {"name": {"count": n, "d": dn, "p50": ..,
  ///                            "p95": .., "p99": ..}}}
  /// Keys sorted, shortest round-trip doubles — byte-reproducible.
  void write_jsonl(std::ostream& out) const;

  /// Wide CSV: column union over all samples; counters emit `name` and
  /// `name.delta`, gauges `name`, histograms `name.count`,
  /// `name.count.delta` and one `name.pXX` per configured quantile.
  void write_csv(std::ostream& out) const;

  /// Checkpoint codec: boundary cursor, last stored snapshot and every
  /// stored sample.  Options are rebuilt from the config, not serialized.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

 private:
  [[nodiscard]] bool included(const std::string& name) const;
  [[nodiscard]] Snapshot filtered_snapshot() const;

  const Registry& registry_;
  TimeSeriesOptions options_;
  SimTime next_;
  Snapshot last_stored_;  // empty before the first stored sample
  std::vector<Sample> samples_;
};

}  // namespace dtr::obs
