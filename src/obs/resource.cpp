#include "obs/resource.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

namespace dtr::obs {

namespace detail {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace detail

std::uint64_t allocation_count() {
  return detail::g_alloc_count.load(std::memory_order_relaxed);
}

std::uint64_t allocation_bytes() {
  return detail::g_alloc_bytes.load(std::memory_order_relaxed);
}

std::uint64_t read_peak_rss_bytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is kilobytes on Linux.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

std::uint64_t read_rss_bytes() {
  // /proc/self/statm: "size resident shared text lib data dt" in pages.
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    unsigned long long size_pages = 0, resident_pages = 0;
    const int parsed = std::fscanf(f, "%llu %llu", &size_pages, &resident_pages);
    std::fclose(f);
    if (parsed == 2) {
      const long page = sysconf(_SC_PAGESIZE);
      return resident_pages * static_cast<std::uint64_t>(page > 0 ? page : 4096);
    }
  }
  return read_peak_rss_bytes();
}

ResourceSampler::ResourceSampler(Registry* registry,
                                 ResourceSamplerOptions options)
    : registry_(registry), options_(std::move(options)) {}

ResourceSampler::~ResourceSampler() { stop(); }

void ResourceSampler::resolve_instruments() {
  if (resolved_) return;
  resolved_ = true;
  if (registry_ == nullptr || !options_.publish_gauges) return;
  // Wall-clock valued.
  constexpr auto kOps = Determinism::kOperational;
  rss_gauge_ = &registry_->gauge("proc.rss.bytes", kOps);
  peak_rss_gauge_ = &registry_->gauge("proc.rss.peak.bytes", kOps);
  alloc_count_gauge_ = &registry_->gauge("proc.alloc.count", kOps);
  alloc_bytes_gauge_ = &registry_->gauge("proc.alloc.bytes", kOps);
}

void ResourceSampler::start() {
  std::unique_lock lock(mutex_);
  if (running_) return;
  resolve_instruments();
  started_at_ = std::chrono::steady_clock::now();
  running_ = true;
  stop_requested_ = false;
  lock.unlock();
  thread_ = std::thread([this] { run(); });
}

void ResourceSampler::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard lock(mutex_);
    running_ = false;
  }
  sample_now();  // final sample so short runs always record an endpoint
}

void ResourceSampler::run() {
  std::unique_lock lock(mutex_);
  while (!stop_requested_) {
    lock.unlock();
    sample_now();
    lock.lock();
    cv_.wait_for(lock, options_.interval, [this] { return stop_requested_; });
  }
}

void ResourceSampler::sample_now() {
  std::unique_lock lock(mutex_);
  if (!resolved_) {
    resolve_instruments();
    started_at_ = std::chrono::steady_clock::now();
  }
  lock.unlock();

  ResourceSample sample;
  sample.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started_at_)
                            .count();
  sample.rss_bytes = read_rss_bytes();
  sample.peak_rss_bytes = read_peak_rss_bytes();
  sample.alloc_count = allocation_count();
  sample.alloc_bytes = allocation_bytes();
  // Tracked instruments are read by name, never registered here: the
  // component that owns one declares its class when it binds, which may
  // be after the sampler starts.
  if (registry_ != nullptr &&
      !(options_.counters.empty() && options_.gauges.empty())) {
    const Snapshot snap = registry_->snapshot();
    for (const std::string& name : options_.counters)
      sample.counters.push_back(snap.counter(name));
    for (const TrackedGauge& gauge : options_.gauges)
      sample.gauges.push_back(snap.gauge(gauge.name));
  }

  set(rss_gauge_, static_cast<std::int64_t>(sample.rss_bytes));
  set(peak_rss_gauge_, static_cast<std::int64_t>(sample.peak_rss_bytes));
  set(alloc_count_gauge_, static_cast<std::int64_t>(sample.alloc_count));
  set(alloc_bytes_gauge_, static_cast<std::int64_t>(sample.alloc_bytes));

  lock.lock();
  samples_.push_back(std::move(sample));
}

std::vector<ResourceSample> ResourceSampler::samples() const {
  std::lock_guard lock(mutex_);
  return samples_;
}

}  // namespace dtr::obs
