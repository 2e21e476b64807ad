// Shared plumbing for donkeybench: sample sets and their quantiles, the
// correctness ledger, in-memory spans for the traced run, child processes
// with their peak RSS, and a few byte helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <streambuf>
#include <vector>

namespace donkeybench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile of an unsorted sample set (q in [0, 1]).
double quantile(std::vector<double> values, double q);

/// One metric: every sample a run took, in the order taken.
struct MetricSeries {
  std::string name;
  std::string unit;
  std::vector<double> samples;

  [[nodiscard]] double median() const { return quantile(samples, 0.5); }
};

/// Metrics of one run, in first-recorded order.
class MetricSet {
 public:
  void add(std::string_view name, std::string_view unit, double value);
  [[nodiscard]] const std::vector<MetricSeries>& all() const { return all_; }

 private:
  std::vector<MetricSeries> all_;
};

/// Correctness ledger: every check is attempted once, and a failed check
/// is reported on stderr with what was expected.
class Checks {
 public:
  bool expect(bool ok, std::string_view what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans recorded around the calls the traced run makes into each layer.
/// Kept in memory and written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;  // since the tracer was created
    double end_s = 0;
  };

  /// RAII span: opened as a child of the innermost open span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened.
    [[nodiscard]] double elapsed() const;

   private:
    Tracer& tracer_;
    int id_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: calls, total seconds and self seconds (total minus the
  /// time its child spans cover).
  struct Rollup {
    std::string name;
    std::uint64_t calls = 0;
    double total_s = 0;
    double self_s = 0;
  };
  [[nodiscard]] std::vector<Rollup> rollup() const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Outcome of one child process.
struct ChildRun {
  int exit_code = -1;  // -1: could not start or killed by a signal
  double wall_s = 0;
  double peak_rss_mb = 0;  // the child's ru_maxrss
};

/// Run `argv` (argv[0] is a path) with stdout sent to `stdout_path` and
/// stderr discarded; waits for it and reads its resource usage.
ChildRun run_child(const std::vector<std::string>& argv,
                   const std::string& stdout_path);

/// Whole file as a string; empty when unreadable.
std::string read_file(const std::string& path);

/// SHA-256 hex digest.
std::string sha256_hex(std::string_view data);

/// Run `body` in a forked copy of this process and return the string it
/// returned; nullopt when the copy could not start or did not exit 0.  Call
/// it only while this process runs a single thread.
std::optional<std::string> run_forked(const std::function<std::string()>& body);

/// This process's resident set now and at its peak so far, in MB.  A forked
/// copy's peak starts at its resident set at the fork.
double rss_mb();
double peak_rss_mb();

/// Free bytes on the filesystem holding `path` (0 when unknown).
std::uint64_t free_disk_bytes(const std::string& path);

/// std::streambuf appending everything written to a caller-owned string:
/// a pipeline's dataset sink whose bytes can be hashed after the clock
/// stops.
class StringSinkBuf final : public std::streambuf {
 public:
  explicit StringSinkBuf(std::string& out) : out_(out) {}

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) out_.push_back(static_cast<char>(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_.append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::string& out_;
};

/// std::streambuf reading caller-owned bytes in place: a dataset read back
/// without a second copy of it in memory.
class StringViewBuf final : public std::streambuf {
 public:
  explicit StringViewBuf(std::string_view in) {
    char* p = const_cast<char*>(in.data());
    setg(p, p, p + in.size());
  }
};

}  // namespace donkeybench
