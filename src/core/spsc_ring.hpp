// Single-producer / single-consumer bounded ring for the pipeline hot path.
//
// Carries the pusher→worker, worker→merge and merge→writer hand-offs.
// The common case (ring neither full nor empty) is two atomic loads and
// one atomic store per side; the mutex + condition variable are only
// touched when a side has to park.
//
// Parking uses the classic store→load (Dekker) protocol: the waiter
// publishes a "waiting" flag, re-checks the ring, and only then sleeps; the
// other side publishes its head/tail update and only grabs the mutex to
// notify when it observes the flag.  Both stores and both loads are
// seq_cst operations, so at least one side sees the other's store; there
// is no standalone fence, which ThreadSanitizer would not model.  The
// empty lock_guard before notify mirrors notify_quiesce() in
// parallel_pipeline.cpp and closes the window between the waiter's
// predicate check and its cv wait.
//
// A ring can also be wired to an external RingSignal so a single consumer
// (the merge thread) can sleep on *several* producer rings at once.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace dtr::core {

/// Fan-in wakeup channel shared by several SpscRings feeding one consumer.
///
/// Consumer protocol:
///   const auto seen = signal.prepare();   // announce intent to sleep
///   ... scan all rings ...
///   if (found) signal.cancel(); else signal.wait(seen);
///
/// Producers call notify() after publishing; the epoch bump makes a wait()
/// that raced with the publish return immediately instead of sleeping.
/// Every producer bumps the epoch on each publish, so the signal takes a
/// cache line of its own: it must not share one with a neighbour that
/// another thread writes.
class alignas(64) RingSignal {
 public:
  using Epoch = std::uint64_t;

  [[nodiscard]] Epoch prepare() {
    waiting_.store(true, std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }

  void cancel() { waiting_.store(false, std::memory_order_relaxed); }

  void wait(Epoch seen) {
    // The consumer is starved for input across every bound ring.
    obs::ProfScope prof(obs::ThreadState::kPark);
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return epoch_.load(std::memory_order_acquire) != seen; });
    waiting_.store(false, std::memory_order_relaxed);
  }

  void notify() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (!waiting_.load(std::memory_order_seq_cst)) return;
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }

 private:
  std::atomic<Epoch> epoch_{0};
  std::atomic<bool> waiting_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
};

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  /// Route consumer wakeups through a shared fan-in signal instead of the
  /// internal condition variable.  Must be called before threads start.
  void bind_consumer_signal(RingSignal* signal) { signal_ = signal; }

  /// Count producer/consumer parks (sleeps) into shared instruments.  Park
  /// *durations* need no binding: when the parking thread is registered
  /// with an obs::Profiler, the ProfScopes on the wait paths attribute the
  /// blocked time (queue_wait for producers, park for consumers).
  void bind_metrics(obs::Counter* producer_parks, obs::Counter* consumer_parks) {
    producer_parks_ = producer_parks;
    consumer_parks_ = consumer_parks;
  }

  std::size_t capacity() const { return mask_ + 1; }

  std::size_t size() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Closed with nothing left to pop.
  bool drained() const {
    if (!closed_.load(std::memory_order_acquire)) return false;
    return head_.load(std::memory_order_acquire) == tail_.load(std::memory_order_acquire);
  }

  /// Non-blocking push.  Returns false (item untouched) when full or closed.
  bool try_push(T& item) {
    if (closed_.load(std::memory_order_acquire)) return false;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) > mask_) return false;
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_seq_cst);
    wake_consumer();
    return true;
  }

  /// Blocking push.  Returns false and drops the item if the ring is closed.
  bool push(T item) {
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) return false;
      const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
      if (tail - head_.load(std::memory_order_acquire) <= mask_) {
        slots_[tail & mask_] = std::move(item);
        tail_.store(tail + 1, std::memory_order_seq_cst);
        wake_consumer();
        return true;
      }
      producer_waiting_.store(true, std::memory_order_seq_cst);
      if (tail - head_.load(std::memory_order_seq_cst) <= mask_ ||
          closed_.load(std::memory_order_acquire)) {
        producer_waiting_.store(false, std::memory_order_relaxed);
        continue;
      }
      obs::inc(producer_parks_);
      {
        // Blocked on a full downstream ring: backpressure, not idleness.
        obs::ProfScope prof(obs::ThreadState::kQueueWait);
        std::unique_lock<std::mutex> lock(mutex_);
        not_full_.wait(lock, [&] {
          return closed_.load(std::memory_order_acquire) ||
                 tail - head_.load(std::memory_order_acquire) <= mask_;
        });
      }
      producer_waiting_.store(false, std::memory_order_relaxed);
    }
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return std::nullopt;
    std::optional<T> item(std::move(slots_[head & mask_]));
    head_.store(head + 1, std::memory_order_seq_cst);
    wake_producer();
    return item;
  }

  /// Blocking pop.  Returns nullopt only after close() once the ring drains.
  std::optional<T> pop() {
    for (;;) {
      if (auto item = try_pop()) return item;
      if (closed_.load(std::memory_order_acquire) &&
          head_.load(std::memory_order_relaxed) == tail_.load(std::memory_order_acquire)) {
        return std::nullopt;
      }
      consumer_waiting_.store(true, std::memory_order_seq_cst);
      const std::uint64_t head = head_.load(std::memory_order_relaxed);
      if (head != tail_.load(std::memory_order_seq_cst) ||
          closed_.load(std::memory_order_acquire)) {
        consumer_waiting_.store(false, std::memory_order_relaxed);
        continue;
      }
      obs::inc(consumer_parks_);
      {
        // Starved for upstream input.
        obs::ProfScope prof(obs::ThreadState::kPark);
        std::unique_lock<std::mutex> lock(mutex_);
        not_empty_.wait(lock, [&] {
          return closed_.load(std::memory_order_acquire) ||
                 head != tail_.load(std::memory_order_acquire);
        });
      }
      consumer_waiting_.store(false, std::memory_order_relaxed);
    }
  }

  /// Non-blocking bulk drain; appends everything currently visible to `out`
  /// in FIFO order and returns how many items were taken.
  std::size_t pop_all(std::vector<T>& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return 0;
    for (std::uint64_t i = head; i != tail; ++i) {
      out.push_back(std::move(slots_[i & mask_]));
    }
    head_.store(tail, std::memory_order_seq_cst);
    wake_producer();
    return static_cast<std::size_t>(tail - head);
  }

  /// Close the ring: pushes start failing, pops drain what is left.
  void close() {
    closed_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(mutex_);
    }
    not_empty_.notify_all();
    not_full_.notify_all();
    if (signal_ != nullptr) signal_->notify();
  }

 private:
  // Called right after the seq_cst store of tail_ (wake_consumer) or head_
  // (wake_producer) that the parked side re-checks.
  void wake_consumer() {
    if (consumer_waiting_.load(std::memory_order_seq_cst)) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
      }
      not_empty_.notify_all();
    }
    if (signal_ != nullptr) signal_->notify();
  }

  void wake_producer() {
    if (producer_waiting_.load(std::memory_order_seq_cst)) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
      }
      not_full_.notify_all();
    }
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> producer_waiting_{false};
  std::atomic<bool> consumer_waiting_{false};
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  RingSignal* signal_ = nullptr;
  obs::Counter* producer_parks_ = nullptr;
  obs::Counter* consumer_parks_ = nullptr;
};

}  // namespace dtr::core
