#include "obs/timeseries.hpp"

#include <map>

#include "obs/json.hpp"

namespace dtr::obs {

namespace {

// The quantiles derived per histogram per sample, with their labels.
constexpr std::pair<double, const char*> kQuantiles[] = {
    {0.5, "p50"}, {0.95, "p95"}, {0.99, "p99"}};

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(const Registry& registry,
                                       SimTime interval)
    : registry_(registry),
      interval_(interval == 0 ? kSecond : interval),
      next_(interval_) {}

void TimeSeriesRecorder::sample() {
  samples_.push_back(Sample{next_, registry_.measured_snapshot()});
  next_ += interval_;
}

void TimeSeriesRecorder::finish(SimTime end) {
  while (next_ <= end) sample();
}

std::vector<std::pair<SimTime, std::uint64_t>>
TimeSeriesRecorder::counter_deltas(const std::string& name) const {
  std::vector<std::pair<SimTime, std::uint64_t>> out;
  out.reserve(samples_.size());
  std::uint64_t previous = 0;
  for (const Sample& s : samples_) {
    const std::uint64_t value = s.snapshot.counter(name);
    out.emplace_back(s.time, value - previous);
    previous = value;
  }
  return out;
}

void TimeSeriesRecorder::write_jsonl(std::ostream& out) const {
  const Snapshot* previous = nullptr;
  for (const Sample& s : samples_) {
    out << "{\"t\": " << json_double(to_seconds_f(s.time))
        << ", \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : s.snapshot.counters) {
      const std::uint64_t prev =
          previous == nullptr ? 0 : previous->counter(name);
      out << (first ? "" : ", ");
      first = false;
      json_string(out, name);
      out << ": {\"v\": " << value << ", \"d\": " << value - prev << "}";
    }
    out << "}, \"gauges\": {";
    first = true;
    for (const auto& [name, value] : s.snapshot.gauges) {
      out << (first ? "" : ", ");
      first = false;
      json_string(out, name);
      out << ": " << value;
    }
    out << "}, \"histograms\": {";
    first = true;
    for (const auto& [name, h] : s.snapshot.histograms) {
      std::uint64_t prev_count = 0;
      if (previous != nullptr) {
        auto it = previous->histograms.find(name);
        if (it != previous->histograms.end()) prev_count = it->second.count;
      }
      out << (first ? "" : ", ");
      first = false;
      json_string(out, name);
      out << ": {\"count\": " << h.count << ", \"d\": " << h.count - prev_count;
      for (const auto& [q, label] : kQuantiles) {
        out << ", \"" << label << "\": " << json_double(h.quantile(q));
      }
      out << "}";
    }
    out << "}}\n";
    previous = &s.snapshot;
  }
}

void TimeSeriesRecorder::write_csv(std::ostream& out) const {
  // Column union across samples, in sorted name order per instrument class.
  std::map<std::string, char> columns;  // name -> 'c' / 'g' / 'h'
  for (const Sample& s : samples_) {
    for (const auto& [name, v] : s.snapshot.counters) columns[name] = 'c';
    for (const auto& [name, v] : s.snapshot.gauges) columns[name] = 'g';
    for (const auto& [name, h] : s.snapshot.histograms) columns[name] = 'h';
  }

  out << "t";
  for (const auto& [name, type] : columns) {
    switch (type) {
      case 'c': out << "," << name << "," << name << ".delta"; break;
      case 'g': out << "," << name; break;
      case 'h':
        out << "," << name << ".count," << name << ".count.delta";
        for (const auto& [q, label] : kQuantiles) {
          out << "," << name << "." << label;
        }
        break;
    }
  }
  out << "\n";

  const Snapshot* previous = nullptr;
  for (const Sample& s : samples_) {
    out << json_double(to_seconds_f(s.time));
    for (const auto& [name, type] : columns) {
      switch (type) {
        case 'c': {
          const std::uint64_t value = s.snapshot.counter(name);
          const std::uint64_t prev =
              previous == nullptr ? 0 : previous->counter(name);
          out << "," << value << "," << value - prev;
          break;
        }
        case 'g':
          out << "," << s.snapshot.gauge(name);
          break;
        case 'h': {
          auto it = s.snapshot.histograms.find(name);
          static const HistogramSnapshot kEmpty;
          const HistogramSnapshot& h =
              it == s.snapshot.histograms.end() ? kEmpty : it->second;
          std::uint64_t prev_count = 0;
          if (previous != nullptr) {
            auto pit = previous->histograms.find(name);
            if (pit != previous->histograms.end()) {
              prev_count = pit->second.count;
            }
          }
          out << "," << h.count << "," << h.count - prev_count;
          for (const auto& quantile : kQuantiles) {
            out << "," << json_double(h.quantile(quantile.first));
          }
          break;
        }
      }
    }
    out << "\n";
  }
}

void TimeSeriesRecorder::save_state(ByteWriter& out) const {
  out.u64le(next_);
  out.u64le(samples_.size());
  for (const Sample& s : samples_) {
    out.u64le(s.time);
    s.snapshot.save_state(out);
  }
}

bool TimeSeriesRecorder::restore_state(ByteReader& in) {
  next_ = in.u64le();
  samples_.clear();
  const std::uint64_t n = in.u64le();
  if (n > in.remaining() / 32) return false;
  samples_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    Sample s;
    s.time = in.u64le();
    if (!samples_.empty() && s.time <= samples_.back().time) return false;
    if (!s.snapshot.restore_state(in)) return false;
    samples_.push_back(std::move(s));
  }
  return in.ok();
}

}  // namespace dtr::obs
