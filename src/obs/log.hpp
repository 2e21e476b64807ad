// Structured logging for the capture chain (obs::Logger).
//
// The paper's campaign is a ten-week unattended capture: the operational
// question is never "what is the counter now" (metrics answer that) but
// "what happened, when, and how often" — a malformed-frame storm, a buffer
// overflow burst, a reassembly expiry wave.  This logger gives every
// component a levelled, component-tagged, rate-limited channel:
//
//   * Levels: debug < info < warn < error, with a runtime threshold.
//   * Components: a short tag ("decode", "capture", ...) on every record.
//   * Rate limiting: a token bucket driven by *simulated* time, so a storm
//     of identical warnings cannot flood the sink no matter how fast it
//     arrives in wall time.  Errors always pass.  Suppressed records are
//     counted and the count is attached to the next record that passes.
//   * Sinks are pluggable: stderr/file streams for operation, a capturing
//     sink for tests.  No sink bound = every record is dropped after the
//     (cheap) level check.
//
// Hot-path contract (same as the metrics layer): components hold a
// `Logger*` that stays nullptr until bind time, and the DTR_LOG macros
// never evaluate the message expression unless the record would pass the
// level check — an unbound component pays one branch per call site.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"

namespace dtr::obs {

class Counter;
class Registry;

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// "debug" / "info" / "warn" / "error".
const char* log_level_name(LogLevel level);
/// Parse a level name (as printed by log_level_name); false on bad input.
bool parse_log_level(std::string_view name, LogLevel& out);

struct LogRecord {
  SimTime time = 0;          ///< simulated capture time of the event
  LogLevel level = LogLevel::kInfo;
  std::string component;     ///< short tag: "capture", "decode", ...
  std::string message;
  std::uint64_t suppressed_before = 0;  ///< records rate-limited since the
                                        ///< previous one that passed
};

class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void write(const LogRecord& record) = 0;
};

/// Writes "[   t.tttt] LEVEL component: message" lines to a stream
/// (stderr, a log file).  Serialised internally; safe from any thread.
class StreamSink : public LogSink {
 public:
  explicit StreamSink(std::ostream& out) : out_(out) {}
  void write(const LogRecord& record) override;

 private:
  std::mutex mutex_;
  std::ostream& out_;
};

/// Retains every record in memory — the test harness's sink.
class CaptureSink : public LogSink {
 public:
  void write(const LogRecord& record) override;
  [[nodiscard]] std::vector<LogRecord> records() const;
  [[nodiscard]] std::size_t count() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<LogRecord> records_;
};

struct RateLimitConfig {
  double tokens_per_second = 1.0;  ///< refill rate, in simulated seconds
  double burst = 50.0;             ///< bucket capacity
};

class Logger {
 public:
  Logger() = default;
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// The sink must outlive the logger (or be reset to nullptr first).
  void set_sink(LogSink* sink) { sink_.store(sink, std::memory_order_release); }
  void set_level(LogLevel level) {
    threshold_.store(static_cast<std::uint8_t>(level),
                     std::memory_order_relaxed);
  }
  void set_rate_limit(const RateLimitConfig& config);

  /// Cheap pre-check: callers (the DTR_LOG macros) skip message formatting
  /// entirely when this is false.
  [[nodiscard]] bool enabled(LogLevel level) const {
    return sink_.load(std::memory_order_acquire) != nullptr &&
           static_cast<std::uint8_t>(level) >=
               threshold_.load(std::memory_order_relaxed);
  }

  /// Emit one record.  `time` is simulated capture time and also drives the
  /// token-bucket refill; errors bypass the limiter.
  void log(LogLevel level, std::string_view component, SimTime time,
           std::string message);

  /// Records dropped by the rate limiter so far.
  [[nodiscard]] std::uint64_t suppressed() const {
    return suppressed_total_.load(std::memory_order_relaxed);
  }

  /// Mirror the suppression tally into a `log.suppressed` counter so the
  /// metrics snapshot carries it.
  void bind_metrics(Registry& registry);

  /// Shutdown flush: emit one "N records rate-limited" summary line
  /// covering the whole run.  Bypasses the level threshold and the token
  /// bucket (it IS the limiter's accounting); no-op when nothing was
  /// suppressed or no sink is bound.
  void emit_suppressed_summary(SimTime now);

 private:
  std::atomic<LogSink*> sink_{nullptr};
  std::atomic<Counter*> suppressed_counter_{nullptr};
  std::atomic<std::uint8_t> threshold_{
      static_cast<std::uint8_t>(LogLevel::kInfo)};
  std::atomic<std::uint64_t> suppressed_total_{0};

  // Token bucket (guarded: log records are rare by construction once the
  // limiter engages, so a mutex is the right tool).
  std::mutex mutex_;
  RateLimitConfig rate_;
  double tokens_ = 50.0;
  SimTime last_refill_ = 0;
  std::uint64_t suppressed_run_ = 0;  // since the last record that passed
};

}  // namespace dtr::obs

/// DTR_LOG_*(logger*, component, sim_time, streamable): formats and emits
/// only when `logger` is bound and the level passes — an unbound component
/// pays one branch and never touches an ostringstream.
#define DTR_LOG_AT(logger_expr, lvl, component, time_expr, stream_expr)     \
  do {                                                                      \
    ::dtr::obs::Logger* dtr_log_ptr = (logger_expr);                        \
    if (dtr_log_ptr != nullptr && dtr_log_ptr->enabled(lvl)) {              \
      std::ostringstream dtr_log_os;                                        \
      dtr_log_os << stream_expr;                                            \
      dtr_log_ptr->log(lvl, component, time_expr, dtr_log_os.str());        \
    }                                                                       \
  } while (0)

#define DTR_LOG_DEBUG(logger, component, time, stream_expr) \
  DTR_LOG_AT(logger, ::dtr::obs::LogLevel::kDebug, component, time, stream_expr)
#define DTR_LOG_INFO(logger, component, time, stream_expr) \
  DTR_LOG_AT(logger, ::dtr::obs::LogLevel::kInfo, component, time, stream_expr)
#define DTR_LOG_WARN(logger, component, time, stream_expr) \
  DTR_LOG_AT(logger, ::dtr::obs::LogLevel::kWarn, component, time, stream_expr)
#define DTR_LOG_ERROR(logger, component, time, stream_expr) \
  DTR_LOG_AT(logger, ::dtr::obs::LogLevel::kError, component, time, stream_expr)
