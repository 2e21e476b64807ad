// donkeybench — the benchmark of record for donkeytrace.
//
//   donkeybench --workload W [--seed N] [--seconds S] [--trace 0|1]
//               [--scale full|smoke] [--workdir DIR] [--git-sha SHA]
//               [--out FILE]
//
// The donkeytrace CLI it times is the one built beside it, tools/donkeytrace.
//
// One invocation runs one workload.  With --trace 0 it sets up (several
// times; setup_s is the median), then measures untraced passes for S
// seconds and reports the end-to-end metrics.  With --trace 1 it sets up
// once and measures each layer of the same input for S seconds, reporting
// the per-layer metrics and the spans around every layer call.  Every
// output is checked; a failed check makes the run exit 1.
//
// stderr gets a human table (median, quartiles, n) and the stamp; --out
// gets the full JSON record; the last line of stdout is the summary
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/json.hpp"
#include "workloads.hpp"

// Count allocations (core.allocs_per_frame), as the donkeytrace CLI does.
#include "obs/alloc_counting.hpp"

namespace {

using namespace donkeybench;
namespace fs = std::filesystem;

int usage() {
  std::cerr << "usage: donkeybench --workload "
               "mirror_bg|udp_dense|campaign_flash|analyze_readback\n"
               "         [--seed N] [--seconds S] [--trace 0|1] "
               "[--scale full|smoke]\n"
               "         [--workdir DIR] [--git-sha SHA] [--out FILE]\n";
  return 2;
}

fs::path self_path() {
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  return ec ? fs::path("donkeybench") : exe;
}

/// Removes the run's private work directory on every exit path.
struct WorkdirGuard {
  fs::path path;
  ~WorkdirGuard() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void print_table(const RunResult& r, bool trace) {
  std::fprintf(stderr, "\n%-32s %-6s %14s %14s %14s %4s\n", "metric", "unit",
               "median", "q1", "q3", "n");
  for (const MetricSeries& m : r.metrics.all()) {
    std::fprintf(stderr, "%-32s %-6s %14s %14s %14s %4zu\n", m.name.c_str(),
                 m.unit.c_str(), fmt(m.median()).c_str(),
                 fmt(quantile(m.samples, 0.25)).c_str(),
                 fmt(quantile(m.samples, 0.75)).c_str(), m.samples.size());
  }
  if (!trace) return;
  std::fprintf(stderr, "\n%-32s %6s %12s %12s\n", "span", "calls", "total_s",
               "self_s");
  for (const Tracer::Rollup& s : r.tracer.rollup()) {
    std::fprintf(stderr, "%-32s %6llu %12.4f %12.4f\n", s.name.c_str(),
                 static_cast<unsigned long long>(s.calls), s.total_s, s.self_s);
  }
}

std::string json_str(std::string_view s) {
  std::ostringstream out;
  dtr::obs::json_string(out, s);
  return out.str();
}

std::string json_num(double v) { return dtr::obs::json_double(v); }

/// The full record for --out: stamp, parameters, every sample, checks and
/// (traced runs) spans.
std::string full_record(const Options& opt, const RunResult& r,
                        const std::vector<std::pair<std::string, std::string>>&
                            stamp) {
  std::string j = "{\"stamp\": {";
  for (std::size_t i = 0; i < stamp.size(); ++i) {
    j += (i ? ", " : "") + json_str(stamp[i].first) + ": " +
         json_str(stamp[i].second);
  }
  j += "}, \"params\": {";
  for (std::size_t i = 0; i < r.params.size(); ++i) {
    j += (i ? ", " : "") + json_str(r.params[i].first) + ": " +
         json_str(r.params[i].second);
  }
  j += "}, \"metrics\": {";
  bool first = true;
  for (const MetricSeries& m : r.metrics.all()) {
    j += (first ? "" : ", ") + json_str(m.name) + ": {\"unit\": " +
         json_str(m.unit) + ", \"median\": " + json_num(m.median()) +
         ", \"q1\": " + json_num(quantile(m.samples, 0.25)) +
         ", \"q3\": " + json_num(quantile(m.samples, 0.75)) +
         ", \"n\": " + std::to_string(m.samples.size()) + ", \"samples\": [";
    for (std::size_t i = 0; i < m.samples.size(); ++i) {
      j += (i ? ", " : "") + json_num(m.samples[i]);
    }
    j += "]}";
    first = false;
  }
  j += "}, \"checks\": {\"attempted\": " +
       std::to_string(r.checks.attempted()) +
       ", \"failed\": " + std::to_string(r.checks.failed()) + "}";
  if (opt.trace) {
    j += ", \"spans\": [";
    const auto& spans = r.tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      j += (i ? ", " : "") + std::string("{\"name\": ") +
           json_str(spans[i].name) +
           ", \"parent\": " + std::to_string(spans[i].parent) +
           ", \"start_s\": " + json_num(spans[i].start_s) +
           ", \"end_s\": " + json_num(spans[i].end_s) + "}";
    }
    j += "]";
  }
  return j + "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string out_path;
  std::string git_sha = "unknown";
  std::string workdir = ".bench_work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--scale" && (value == "full" || value == "smoke")) {
      opt.scale = value == "full" ? Scale::kFull : Scale::kSmoke;
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || opt.workload == name;
  if (!known || !(opt.seconds > 0)) return usage();

  opt.cli = (self_path().parent_path() / "tools" / "donkeytrace").string();
  if (access(opt.cli.c_str(), X_OK) != 0) {
    std::cerr << "donkeybench: cannot execute the CLI at " << opt.cli << "\n";
    return 2;
  }

  // The feeder and the merge thread take two cores; workers get the rest.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  opt.workers = hw > 3 ? hw - 2 : 1;

  WorkdirGuard guard{fs::absolute(fs::path(workdir) /
                                  (opt.workload + "-" + std::to_string(getpid())))};
  std::error_code ec;
  fs::remove_all(guard.path, ec);
  fs::create_directories(guard.path, ec);
  if (ec) {
    std::cerr << "donkeybench: cannot create " << guard.path << "\n";
    return 2;
  }
  opt.workdir = guard.path.string();

  const std::vector<std::pair<std::string, std::string>> stamp = {
      {"workload", opt.workload},
      {"mode", opt.trace ? "traced" : "timed"},
      {"scale", opt.scale == Scale::kFull ? "full" : "smoke"},
      {"seed", std::to_string(opt.seed)},
      {"seconds", fmt(opt.seconds)},
      {"hardware_threads", std::to_string(hw)},
      {"workers", std::to_string(opt.workers)},
      {"build_type", DONKEYBENCH_BUILD_TYPE},
      {"compiler", DONKEYBENCH_COMPILER},
      {"git_sha", git_sha},
  };
  std::cerr << "donkeybench:";
  for (const auto& [k, v] : stamp) std::cerr << " " << k << "=" << v;
  std::cerr << "\n";

  RunResult result;
  if (opt.trace) {
    run_traced(opt, result);
  } else {
    run_timed(opt, result);
  }

  std::cerr << "params:";
  for (const auto& [k, v] : result.params) std::cerr << " " << k << "=" << v;
  std::cerr << "\n";
  print_table(result, opt.trace);
  std::cerr << "checks: " << result.checks.attempted() << " attempted, "
            << result.checks.failed() << " failed\n";

  if (!out_path.empty()) {
    const std::string record = full_record(opt, result, stamp);
    std::ofstream out(out_path, std::ios::binary);
    out << record;
    if (!out || !dtr::obs::json_valid(record)) {
      std::cerr << "donkeybench: cannot write a valid record to " << out_path
                << "\n";
      return 2;
    }
  }

  const bool correct = result.checks.failed() == 0;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(std::max<std::uint64_t>(
                         1, result.checks.attempted())) +
                     ", \"failed\": " + std::to_string(result.checks.failed()) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricSeries& m : result.metrics.all()) {
    line += (first ? "" : ", ") + json_str(m.name) + ": {\"value\": " +
            json_num(m.median()) + ", \"unit\": " + json_str(m.unit) + "}";
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
