#include "obs/log.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"

namespace dtr::obs {

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "?";
}

bool parse_log_level(std::string_view name, LogLevel& out) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError}) {
    if (name == log_level_name(level)) {
      out = level;
      return true;
    }
  }
  return false;
}

void StreamSink::write(const LogRecord& record) {
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "%12.4f", to_seconds_f(record.time));
  std::lock_guard lock(mutex_);
  out_ << "[" << stamp << "] " << log_level_name(record.level) << " "
       << record.component << ": " << record.message;
  if (record.suppressed_before > 0) {
    out_ << " (+" << record.suppressed_before << " suppressed)";
  }
  out_ << "\n";
}

void CaptureSink::write(const LogRecord& record) {
  std::lock_guard lock(mutex_);
  records_.push_back(record);
}

std::vector<LogRecord> CaptureSink::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

std::size_t CaptureSink::count() const {
  std::lock_guard lock(mutex_);
  return records_.size();
}

void CaptureSink::clear() {
  std::lock_guard lock(mutex_);
  records_.clear();
}

void Logger::set_rate_limit(const RateLimitConfig& config) {
  std::lock_guard lock(mutex_);
  rate_ = config;
  tokens_ = config.burst;
}

void Logger::log(LogLevel level, std::string_view component, SimTime time,
                 std::string message) {
  LogSink* sink = sink_.load(std::memory_order_acquire);
  if (sink == nullptr ||
      static_cast<std::uint8_t>(level) <
          threshold_.load(std::memory_order_relaxed)) {
    return;
  }

  std::uint64_t suppressed_before = 0;
  {
    std::lock_guard lock(mutex_);
    // Refill on simulated time.  Decode workers can present slightly
    // out-of-order times; never refill backwards.
    if (time > last_refill_) {
      tokens_ = std::min(rate_.burst,
                         tokens_ + to_seconds_f(time - last_refill_) *
                                       rate_.tokens_per_second);
      last_refill_ = time;
    }
    if (level != LogLevel::kError) {
      if (tokens_ < 1.0) {
        ++suppressed_run_;
        suppressed_total_.fetch_add(1, std::memory_order_relaxed);
        inc(suppressed_counter_.load(std::memory_order_relaxed));
        return;
      }
      tokens_ -= 1.0;
    }
    suppressed_before = suppressed_run_;
    suppressed_run_ = 0;
  }

  LogRecord record;
  record.time = time;
  record.level = level;
  record.component.assign(component);
  record.message = std::move(message);
  record.suppressed_before = suppressed_before;
  sink->write(record);
}

void Logger::bind_metrics(Registry& registry) {
  // Depends on which levels and sinks the operator enabled.
  Counter& counter =
      registry.counter("log.suppressed", Determinism::kOperational);
  // Carry forward drops that happened before binding.
  const std::uint64_t already =
      suppressed_total_.load(std::memory_order_relaxed);
  if (already > counter.value()) counter.inc(already - counter.value());
  suppressed_counter_.store(&counter, std::memory_order_relaxed);
}

void Logger::emit_suppressed_summary(SimTime now) {
  LogSink* sink = sink_.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  const std::uint64_t total =
      suppressed_total_.load(std::memory_order_relaxed);
  if (total == 0) return;
  LogRecord record;
  record.time = now;
  record.level = LogLevel::kInfo;
  record.component = "log";
  record.message =
      std::to_string(total) + " records rate-limited over the run";
  {
    // The summary supersedes the pending "suppressed since last pass" run.
    std::lock_guard lock(mutex_);
    suppressed_run_ = 0;
  }
  sink->write(record);
}

}  // namespace dtr::obs
