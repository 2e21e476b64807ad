// Pipeline profiler: per-thread time attribution for the capture chain.
//
// The paper's capture box had to keep ~1,200 messages/second flowing for
// ten weeks; after PR 6 broke the merge-thread bottleneck the open question
// is "which stage is saturated *now*?".  Counters can say how often a ring
// parked, but not where the seconds went.  This profiler attributes every
// thread's wall time to one of four states:
//
//   working    — executing stage code (the default between scopes),
//   queue_wait — blocked pushing into a full downstream queue/ring
//                (backpressure: the stage *after* this thread is the
//                bottleneck),
//   park       — blocked waiting for upstream input (starvation: this
//                thread has spare capacity),
//   lock_wait  — blocked acquiring a contended lock (shard mutexes).
//
// Concurrency model (same shape as obs::Counter's striping): each thread
// owns a ThreadProfile — a cache-line-isolated block of per-state
// nanosecond accumulators written only by the owning thread with relaxed
// atomics, so flipping states never touches a shared cache line.  The
// report reader sums the accumulators cross-thread; totals are exact for
// finished threads and monotone-approximate for live ones.
//
// Hot-path contract (same as metrics/logging): components consult a
// thread-local ThreadProfile pointer that stays nullptr until the thread
// registers.  An unprofiled thread pays one TLS load and a predictable
// branch per scope — no clock reads.  A profiled thread pays two
// steady_clock reads per scope, and scopes sit on *blocking* paths (the
// park/wait slow paths), never on the per-frame fast path.
//
// Determinism contract: the profiler observes wall time only.  It never
// feeds the metrics Registry, the TimeSeriesRecorder, or the checkpoint
// fingerprint, so enabling it cannot perturb byte-identity pins.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "obs/resource.hpp"

namespace dtr::obs {

enum class ThreadState : std::uint8_t {
  kWorking = 0,
  kQueueWait = 1,
  kPark = 2,
  kLockWait = 3,
};

inline constexpr std::size_t kThreadStateCount = 4;

/// "working" / "queue_wait" / "park" / "lock_wait".
const char* thread_state_name(ThreadState state);

/// Monotonic nanoseconds since an arbitrary epoch.
inline std::uint64_t profiler_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One thread's time-attribution ledger.  Owned by the Profiler (stable
/// address); written only by the registered thread, read by the report.
class alignas(64) ThreadProfile {
 public:
  [[nodiscard]] const std::string& stage() const { return stage_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Owner thread only: accumulate the elapsed time into the current state
  /// and enter `next`.  Returns the previous state so RAII scopes can
  /// restore it.
  ThreadState switch_state(ThreadState next) {
    const std::uint64_t now = profiler_now_ns();
    const auto prev = static_cast<ThreadState>(
        state_.load(std::memory_order_relaxed));
    const std::uint64_t entered = entered_ns_.load(std::memory_order_relaxed);
    acc_ns_[static_cast<std::size_t>(prev)].fetch_add(
        now - entered, std::memory_order_relaxed);
    state_.store(static_cast<std::uint8_t>(next), std::memory_order_relaxed);
    entered_ns_.store(now, std::memory_order_relaxed);
    return prev;
  }

  /// Owner thread only: close the ledger (flushes the open state).  After
  /// this, totals() is exact and stable.
  void finish() {
    if (finished_.load(std::memory_order_relaxed)) return;
    switch_state(ThreadState::kWorking);
    finished_.store(true, std::memory_order_release);
  }

  struct Totals {
    std::array<double, kThreadStateCount> seconds{};  // per-state
    double total_seconds = 0;
    bool finished = false;
  };

  /// Any thread.  For a live thread the open state is credited up to "now",
  /// so totals are monotone but may slightly lag the owner's next switch.
  [[nodiscard]] Totals totals() const;

 private:
  friend class Profiler;
  ThreadProfile(std::string stage, std::string name);

  std::string stage_;
  std::string name_;
  std::array<std::atomic<std::uint64_t>, kThreadStateCount> acc_ns_{};
  std::atomic<std::uint8_t> state_{
      static_cast<std::uint8_t>(ThreadState::kWorking)};
  std::atomic<std::uint64_t> entered_ns_{0};
  std::atomic<bool> finished_{false};
};

namespace detail {
/// The calling thread's registered profile, nullptr when unprofiled.
inline thread_local ThreadProfile* t_thread_profile = nullptr;
}  // namespace detail

/// RAII state scope.  On an unprofiled thread: one TLS load, no clocks.
class ProfScope {
 public:
  explicit ProfScope(ThreadState state)
      : profile_(detail::t_thread_profile) {
    if (profile_ != nullptr) prev_ = profile_->switch_state(state);
  }
  ~ProfScope() {
    if (profile_ != nullptr) profile_->switch_state(prev_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ThreadProfile* profile_;
  ThreadState prev_ = ThreadState::kWorking;
};

/// Owns every ThreadProfile and the checkpoint-cost ledger; builds the
/// end-of-run bottleneck report.  Must outlive the pipelines it profiles
/// (threads must release before the profiler is destroyed — ThreadLease
/// and the pipelines' finish() paths guarantee that).
class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Register the calling thread under `stage` (aggregation key: "worker",
  /// "merge", ...) and `name` (unique-ish: "worker.3").  Binds the
  /// thread-local profile so ProfScopes on this thread start recording.
  /// The thread (or its lease) must call release() before exiting.
  ThreadProfile* register_thread(std::string_view stage,
                                 std::string_view name);

  /// The calling thread's profile, nullptr when unregistered.
  [[nodiscard]] static ThreadProfile* current() {
    return detail::t_thread_profile;
  }

  /// Owner thread only: close `profile`'s ledger and unbind the
  /// thread-local pointer (if it still points at `profile`).
  static void release(ThreadProfile* profile);

  struct CheckpointCost {
    SimTime boundary = 0;        ///< simulated time of the snapshot
    double wall_seconds = 0;     ///< wall-clock cost of writing it
    std::uint64_t bytes = 0;     ///< snapshot size on disk
  };

  /// Record the wall cost of one checkpoint snapshot (CampaignRunner).
  void note_checkpoint(SimTime boundary, double wall_seconds,
                       std::uint64_t bytes);

  [[nodiscard]] std::vector<CheckpointCost> checkpoint_costs() const;

  /// Point-in-time totals of every registered thread (registration order).
  struct ThreadSummary {
    std::string stage;
    std::string name;
    std::array<double, kThreadStateCount> seconds{};
    std::array<double, kThreadStateCount> fraction{};  // sums to ~1.0
    double total_seconds = 0;
    bool finished = false;
  };
  [[nodiscard]] std::vector<ThreadSummary> thread_summaries() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadProfile>> profiles_;
  std::vector<CheckpointCost> checkpoints_;
};

/// RAII registration for a whole thread body: registers on construction
/// (when the profiler is non-null), releases on destruction.
class ThreadLease {
 public:
  ThreadLease() = default;
  ThreadLease(Profiler* profiler, std::string_view stage,
              std::string_view name) {
    if (profiler != nullptr) profile_ = profiler->register_thread(stage, name);
  }
  ~ThreadLease() { reset(); }
  ThreadLease(ThreadLease&& other) noexcept : profile_(other.profile_) {
    other.profile_ = nullptr;
  }
  ThreadLease& operator=(ThreadLease&& other) noexcept {
    if (this != &other) {
      reset();
      profile_ = other.profile_;
      other.profile_ = nullptr;
    }
    return *this;
  }
  ThreadLease(const ThreadLease&) = delete;
  ThreadLease& operator=(const ThreadLease&) = delete;

  /// Owner thread only.
  void reset() {
    if (profile_ != nullptr) {
      Profiler::release(profile_);
      profile_ = nullptr;
    }
  }
  [[nodiscard]] ThreadProfile* get() const { return profile_; }

 private:
  ThreadProfile* profile_ = nullptr;
};

/// Null-tolerant checkpoint-cost helper (mirrors obs::inc/set/observe).
inline void note_checkpoint(Profiler* profiler, SimTime boundary,
                            double wall_seconds, std::uint64_t bytes) {
  if (profiler != nullptr)
    profiler->note_checkpoint(boundary, wall_seconds, bytes);
}

/// The end-of-run bottleneck report: per-thread and per-stage utilisation,
/// the most-saturated stage, checkpoint wall costs, and (when a sampler is
/// supplied) the resource trajectory.
struct BottleneckReport {
  std::vector<Profiler::ThreadSummary> threads;

  struct StageSummary {
    std::string stage;
    std::size_t thread_count = 0;
    std::array<double, kThreadStateCount> seconds{};
    double total_seconds = 0;
    double utilisation = 0;  ///< working / total over the stage's threads
  };
  std::vector<StageSummary> stages;
  /// Stage with the highest working fraction — the saturated one.  Empty
  /// when no thread registered.
  std::string bottleneck;

  std::vector<Profiler::CheckpointCost> checkpoints;
  double checkpoint_total_seconds = 0;

  std::vector<ResourceSample> resources;
  std::vector<std::string> resource_counters;  ///< names for Sample.counters
  std::vector<std::string> resource_gauges;    ///< output names for .gauges
  double resource_interval_seconds = 0;

  /// Human table: per-thread state percentages, stage roll-up, bottleneck
  /// verdict, checkpoint and resource summaries.
  void render_text(std::ostream& out) const;
  /// One JSON object (valid per obs::json_valid); the campaign trajectory
  /// lands under "resources.series".
  void render_json(std::ostream& out) const;
};

/// Snapshot `profiler` (and optionally `sampler`) into a report.
BottleneckReport build_bottleneck_report(const Profiler& profiler,
                                         const ResourceSampler* sampler = nullptr);

}  // namespace dtr::obs
