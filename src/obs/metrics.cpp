#include "obs/metrics.hpp"

#include <algorithm>
#include <utility>

namespace dtr::obs {

namespace {

void add_double(std::atomic<double>& target, double d) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + d,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  const std::size_t n = bounds_.size() + 1;
  for (Shard& shard : shards_) {
    shard.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) shard.buckets[i] = 0;
  }
}

void Histogram::observe(double v) {
  // First bucket whose upper bound admits v; past-the-end = overflow.
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  Shard& shard = shards_[this_thread_shard()];
  shard.buckets[idx].fetch_add(1, std::memory_order_relaxed);
  add_double(shard.sum, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> total(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (std::size_t i = 0; i < total.size(); ++i) {
      total[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : bucket_counts()) n += c;
  return n;
}

double Histogram::sum() const {
  double s = 0.0;
  for (const Shard& shard : shards_) {
    s += shard.sum.load(std::memory_order_relaxed);
  }
  return s;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets = bucket_counts();
  snap.sum = sum();
  for (std::uint64_t c : snap.buckets) snap.count += c;
  return snap;
}

bool Histogram::store(const HistogramSnapshot& snap) {
  if (snap.bounds != bounds_) return false;
  if (snap.buckets.size() != bounds_.size() + 1) return false;
  for (Shard& shard : shards_) {
    for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
      shard.buckets[i].store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
    shards_[0].buckets[i].store(snap.buckets[i], std::memory_order_relaxed);
  }
  shards_[0].sum.store(snap.sum, std::memory_order_relaxed);
  return true;
}

std::vector<double> latency_buckets_s() {
  std::vector<double> bounds;
  for (double b = 1e-6; b < 10.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> size_buckets() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 65536.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> lock_wait_buckets_s() {
  std::vector<double> bounds;
  for (double b = 250e-9; b < 2.0; b *= 4.0) bounds.push_back(b);
  return bounds;
}

template <class T, class... Args>
T& Registry::find_or_add(Instruments<T>& instruments, std::string_view name,
                         Determinism cls, Args&&... args) {
  std::lock_guard lock(mutex_);
  auto it = instruments.find(name);
  if (it == instruments.end()) {
    it = instruments
             .emplace(std::string(name),
                      Entry<T>{std::make_unique<T>(std::forward<Args>(args)...),
                               cls})
             .first;
  }
  return *it->second.instrument;
}

Counter& Registry::counter(std::string_view name, Determinism cls) {
  return find_or_add(counters_, name, cls);
}

Gauge& Registry::gauge(std::string_view name, Determinism cls) {
  return find_or_add(gauges_, name, cls);
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds,
                               Determinism cls) {
  return find_or_add(histograms_, name, cls, std::move(upper_bounds));
}

bool Registry::restore(const Snapshot& snap) {
  for (const auto& [name, v] : snap.counters) counter(name).store(v);
  for (const auto& [name, v] : snap.gauges) gauge(name).set(v);
  for (const auto& [name, h] : snap.histograms) {
    if (!histogram(name, h.bounds).store(h)) return false;
  }
  return true;
}

Snapshot Registry::snapshot() const { return collect(false); }

Snapshot Registry::measured_snapshot() const { return collect(true); }

Snapshot Registry::collect(bool measured_only) const {
  auto keep = [measured_only](const auto& entry) {
    return !measured_only || entry.cls == Determinism::kMeasured;
  };
  std::lock_guard lock(mutex_);
  Snapshot snap;
  for (const auto& [name, e] : counters_) {
    if (keep(e)) snap.counters[name] = e.instrument->value();
  }
  for (const auto& [name, e] : gauges_) {
    if (keep(e)) snap.gauges[name] = e.instrument->value();
  }
  for (const auto& [name, e] : histograms_) {
    if (keep(e)) snap.histograms[name] = e.instrument->snapshot();
  }
  return snap;
}

}  // namespace dtr::obs
