// Span-style trace hooks: a SpanTimer measures the wall time of a scope and
// feeds it into a latency Histogram, so every pipeline stage gets a
// per-stage latency distribution for free.
//
//   obs::Histogram* h = &registry.histogram(
//       "span.decode.seconds", obs::latency_buckets_s(),
//       obs::Determinism::kOperational);
//   ...
//   { DTR_SPAN(h); decoder.push(frame); }       // hot path: cached pointer
//   { DTR_SPAN(&registry, "flush"); flush(); }  // cold path: by name
//
// A SpanTimer over a nullptr histogram never reads the clock — unbound
// components pay one branch, nothing more.
#pragma once

#include <chrono>
#include <string>

#include "obs/metrics.hpp"

namespace dtr::obs {

class SpanTimer {
 public:
  explicit SpanTimer(Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ = Clock::now();
  }

  /// Cold-path convenience: resolves "span.<name>.seconds" in `registry`
  /// as an operational (wall-clock) histogram; nullptr registry = disabled
  /// span.
  SpanTimer(Registry* registry, const char* name)
      : SpanTimer(registry == nullptr
                      ? nullptr
                      : &registry->histogram(
                            "span." + std::string(name) + ".seconds",
                            latency_buckets_s(), Determinism::kOperational)) {}

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  /// Drop this span: nothing is observed when the scope ends.
  void cancel() { hist_ = nullptr; }

  ~SpanTimer() {
    if (hist_ == nullptr) return;
    const std::chrono::duration<double> elapsed = Clock::now() - start_;
    hist_->observe(elapsed.count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* hist_;
  Clock::time_point start_;
};

}  // namespace dtr::obs

#define DTR_OBS_CONCAT_INNER(a, b) a##b
#define DTR_OBS_CONCAT(a, b) DTR_OBS_CONCAT_INNER(a, b)
/// DTR_SPAN(histogram*) or DTR_SPAN(registry*, "name"): time the enclosing
/// scope into a latency histogram.
#define DTR_SPAN(...) \
  ::dtr::obs::SpanTimer DTR_OBS_CONCAT(dtr_span_, __COUNTER__)(__VA_ARGS__)
