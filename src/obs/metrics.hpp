// Pipeline-wide metrics: named Counter / Gauge / Histogram instruments in a
// Registry, built for the measurement chain the paper depends on (§2.2
// quantifies kernel-buffer loss before trusting a single number downstream).
//
// Concurrency model: instruments are striped into per-thread shards — each
// thread gets a stable shard slot and increments its own cache line with a
// relaxed atomic, so the parallel pipeline's workers record without
// contending on a shared counter.  Reads (snapshots) sum the shards; the
// total is exact because every increment is an atomic RMW on *some* shard.
//
// Registration (Registry::counter/gauge/histogram) takes a mutex and is
// meant for construction time; call sites cache the returned pointer and
// record through it on the hot path.  All record operations are wait-free
// apart from the histogram sum (a CAS loop on an uncontended shard).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/snapshot.hpp"

namespace dtr::obs {

/// Number of shard slots per instrument.  Threads beyond this many share
/// slots (still exact — the slot is an atomic — just with some contention).
constexpr std::size_t kShardCount = 16;

/// Stable shard slot of the calling thread, assigned on first use.
inline std::size_t this_thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShardCount;
  return slot;
}

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    shards_[this_thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Exact sum over all per-thread shards.
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// One shard's contribution (exposed so tests can verify the merge).
  [[nodiscard]] std::uint64_t shard_value(std::size_t shard) const {
    return shards_[shard].v.load(std::memory_order_relaxed);
  }

  /// Checkpoint restore: replace the value (every shard zeroed, the total
  /// stored into shard 0).  Not thread-safe against concurrent inc().
  void store(std::uint64_t v) {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
    shards_[0].v.store(v, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShardCount> shards_;
};

/// Last-write-wins instantaneous value (occupancy, table sizes, depths).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }

  /// Raise the gauge to `v` if larger — high-water marks.
  void record_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket catches the rest.  Bounds are fixed at
/// registration so merging shards and snapshots is trivial.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket totals, bounds().size() + 1 entries (last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;

  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Checkpoint restore: replace the contents from a snapshot.  Fails
  /// (returns false, histogram untouched) when the snapshot's bounds do
  /// not match this histogram's.  Not thread-safe against observe().
  bool store(const HistogramSnapshot& snap);

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;  // sorted ascending
  std::array<Shard, kShardCount> shards_;
};

/// Common bucket layouts.
/// Latencies in seconds: 1 us .. ~8.4 s in powers of two.
std::vector<double> latency_buckets_s();
/// Sizes/counts: 1 .. 65536 in powers of two.
std::vector<double> size_buckets();
/// Lock acquisition waits: 250 ns .. ~1 s in powers of four.  Finer at the
/// bottom than latency_buckets_s because an uncontended-but-measured wait
/// is tens of nanoseconds, not microseconds.
std::vector<double> lock_wait_buckets_s();

/// Whether an instrument belongs to the measurement.  A measured value is a
/// function of the input alone (the seed, the frames), so it is the same at
/// every worker count and across checkpoint/resume.  An operational value
/// depends on wall time, thread scheduling or configuration (which outputs,
/// sinks or observers the operator enabled): snapshot() shows it, while
/// measured_snapshot(), which the time series samples and a checkpoint
/// saves, leaves it out.  Declared where the instrument is registered.
enum class Determinism { kMeasured, kOperational };

/// Named instruments.  Thread-safe; instruments live as long as the
/// Registry and keep stable addresses, so callers cache the references.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The class, like a histogram's bounds, is fixed on first registration;
  /// later calls with the same name return the existing instrument
  /// regardless of `cls` or `upper_bounds`.
  Counter& counter(std::string_view name,
                   Determinism cls = Determinism::kMeasured);
  Gauge& gauge(std::string_view name,
               Determinism cls = Determinism::kMeasured);
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds = latency_buckets_s(),
                       Determinism cls = Determinism::kMeasured);

  /// Point-in-time copy of every instrument.
  [[nodiscard]] Snapshot snapshot() const;
  /// Point-in-time copy of the kMeasured instruments only.
  [[nodiscard]] Snapshot measured_snapshot() const;

  /// Checkpoint restore: overwrite (or register, as kMeasured) every
  /// instrument named in `snap` with its snapshot value.  Instruments not
  /// named keep their current values.  Returns false if a histogram exists
  /// with different bounds.  Callers must quiesce recording threads first.
  bool restore(const Snapshot& snap);

 private:
  template <class T>
  struct Entry {
    std::unique_ptr<T> instrument;
    Determinism cls;
  };
  template <class T>
  using Instruments = std::map<std::string, Entry<T>, std::less<>>;

  template <class T, class... Args>
  T& find_or_add(Instruments<T>& instruments, std::string_view name,
                 Determinism cls, Args&&... args);
  [[nodiscard]] Snapshot collect(bool measured_only) const;

  mutable std::mutex mutex_;
  Instruments<Counter> counters_;
  Instruments<Gauge> gauges_;
  Instruments<Histogram> histograms_;
};

// Null-tolerant helpers: instrumented components keep instrument pointers
// that stay nullptr until bind_metrics() is called, so the uninstrumented
// hot path costs one predictable branch.
inline void inc(Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) c->inc(n);
}
inline void set(Gauge* g, std::int64_t v) {
  if (g != nullptr) g->set(v);
}
inline void record_max(Gauge* g, std::int64_t v) {
  if (g != nullptr) g->record_max(v);
}
inline void observe(Histogram* h, double v) {
  if (h != nullptr) h->observe(v);
}

}  // namespace dtr::obs
