#include "bench_util.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statvfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>

#include "hash/sha256.hpp"

namespace donkeybench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void MetricSet::add(std::string_view name, std::string_view unit,
                    double value) {
  for (MetricSeries& m : all_) {
    if (m.name == name) {
      m.samples.push_back(value);
      return;
    }
  }
  all_.push_back({std::string(name), std::string(unit), {value}});
}

bool Checks::expect(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
  return ok;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  Span span;
  span.name = std::move(name);
  span.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  span.start_s = seconds_since(tracer.epoch_);
  id_ = static_cast<int>(tracer.spans_.size());
  tracer.spans_.push_back(std::move(span));
  tracer.open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(id_)].end_s =
      seconds_since(tracer_.epoch_);
  tracer_.open_.pop_back();
}

double Tracer::Scope::elapsed() const {
  return seconds_since(tracer_.epoch_) -
         tracer_.spans_[static_cast<std::size_t>(id_)].start_s;
}

std::vector<Tracer::Rollup> Tracer::rollup() const {
  // Children are recorded after their parent and close before it, so one
  // pass subtracting each span from its parent yields self time.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
  }
  std::vector<Rollup> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto [it, fresh] = index.emplace(spans_[i].name, out.size());
    if (fresh) out.push_back({spans_[i].name, 0, 0, 0});
    Rollup& r = out[it->second];
    ++r.calls;
    r.total_s += spans_[i].end_s - spans_[i].start_s;
    r.self_s += self[i];
  }
  return out;
}

ChildRun run_child(const std::vector<std::string>& argv,
                   const std::string& stdout_path) {
  ChildRun result;
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  const auto t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) return result;
  if (pid == 0) {
    const int out = open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null = open("/dev/null", O_WRONLY);
    if (out < 0 || null < 0) _exit(127);
    dup2(out, STDOUT_FILENO);
    dup2(null, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  int status = 0;
  struct rusage usage{};
  pid_t waited;
  do {
    waited = wait4(pid, &status, 0, &usage);
  } while (waited < 0 && errno == EINTR);
  result.wall_s = seconds_since(t0);
  if (waited == pid && WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
    result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  return result;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string sha256_hex(std::string_view data) {
  return dtr::Sha256::digest(data).hex();
}

namespace {

long status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long value = -1;
  const std::size_t n = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, n) == 0) value = std::atol(line + n);
  }
  std::fclose(f);
  return value;
}

}  // namespace

std::optional<std::string> run_forked(const std::function<std::string()>& body) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::cout.flush();
  std::cerr.flush();
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string out = body();
    std::size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(1);
      done += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return out;
}

double rss_mb() { return static_cast<double>(status_kb("VmRSS:")) / 1024.0; }

double peak_rss_mb() {
  return static_cast<double>(status_kb("VmHWM:")) / 1024.0;
}

std::uint64_t free_disk_bytes(const std::string& path) {
  struct statvfs st{};
  if (statvfs(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.f_bavail) * st.f_frsize;
}

}  // namespace donkeybench
