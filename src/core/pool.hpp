// Free-list object pool for the pipeline data plane.
//
// The batched pipelines shuttle container objects (frame batches, decoded-
// message vectors, XML writer chunks, compressor scratch buffers) between
// threads at a high rate; constructing them fresh each time puts an
// allocation — and later a free on a *different* thread — on the hot path.
// The pool recycles them instead: release() parks an object, acquire()
// hands it back out, and whoever resets its logical contents keeps the
// vector capacity warm.  An object may also go back un-reset, so that the
// thread acquiring it next pays for freeing what it held.
#pragma once

#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace dtr::core {

template <typename T>
class ObjectPool {
 public:
  explicit ObjectPool(std::size_t max_retained) : max_retained_(max_retained) {}

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  /// Instrument with shared hit/miss counters (several pools may bind the
  /// same pair; either may be null).  Call before any thread uses the pool.
  void bind_metrics(obs::Counter* hits, obs::Counter* misses) {
    hits_ = hits;
    misses_ = misses;
  }

  /// A recycled object when one is parked, a fresh T{} otherwise.  The
  /// caller owns it until release().
  [[nodiscard]] T acquire() {
    {
      std::unique_lock lock(mutex_);
      if (!free_.empty()) {
        T obj = std::move(free_.back());
        free_.pop_back();
        lock.unlock();
        obs::inc(hits_);
        return obj;
      }
    }
    obs::inc(misses_);
    return T{};
  }

  /// Park `obj` for reuse, reset or not (the next acquirer resets what the
  /// releaser did not).  Beyond max_retained the object is simply
  /// destroyed.
  void release(T&& obj) {
    std::lock_guard lock(mutex_);
    if (free_.size() < max_retained_) free_.push_back(std::move(obj));
  }

  [[nodiscard]] std::size_t retained() const {
    std::lock_guard lock(mutex_);
    return free_.size();
  }

 private:
  const std::size_t max_retained_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  mutable std::mutex mutex_;
  std::vector<T> free_;
};

}  // namespace dtr::core
