#pragma once

/// \file trace.hpp
/// The benchmark's own instrumentation: in-memory spans written out as
/// Chrome trace-event JSON, layer self time, the percentile pick, and the
/// metric-name rule.  Header-only and free of library dependencies so the
/// self-test (selftest.cpp) exercises exactly what the benchmark runs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xdbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One recorded call: times are microseconds since the tracer's origin,
/// `parent` indexes the enclosing span (-1 at top level).
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;

  [[nodiscard]] double seconds() const { return (end_us - start_us) * 1e-6; }
};

/// Span recorder for one thread of control.  Disabled, begin()/end() do
/// nothing, so the untraced run pays two branches per wrapped call.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  /// Opens a span nested in the innermost open one; returns its id (-1
  /// when disabled).
  int begin(std::string name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), now_us(), 0.0, parent});
    open_.push_back(id);
    return id;
  }

  /// Closes span `id`, which must be the innermost open span.
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Appends a finished span (used by tests to build exact trees).
  int add(std::string name, double start_us, double end_us, int parent) {
    spans_.push_back(Span{std::move(name), start_us, end_us, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of every span called `name`, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.name == name) s += sp.seconds();
    }
    return s;
  }

  /// Durations of every span called `name`, in seconds, in record order.
  [[nodiscard]] std::vector<double> durations_s(std::string_view name) const {
    std::vector<double> out;
    for (const Span& sp : spans_) {
      if (sp.name == name) out.push_back(sp.seconds());
    }
    return out;
  }

  /// Self time of span `id`: its duration minus the part of its interval
  /// covered by its direct children (overlapping children count once).
  [[nodiscard]] double self_s(int id) const {
    const Span& p = spans_[static_cast<std::size_t>(id)];
    std::vector<std::pair<double, double>> kids;
    for (const Span& sp : spans_) {
      if (sp.parent != id) continue;
      const double a = std::max(sp.start_us, p.start_us);
      const double b = std::min(sp.end_us, p.end_us);
      if (b > a) kids.emplace_back(a, b);
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (const auto& [a, b] : kids) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    return (p.end_us - p.start_us - covered) * 1e-6;
  }

  /// Sum of self_s over every span called `name`.
  [[nodiscard]] double total_self_s(std::string_view name) const {
    double s = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) s += self_s(static_cast<int>(i));
    }
    return s;
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps); each event's args carry its id, parent, start
  /// and end, so the tree survives viewers that re-nest by time.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%zu,\"parent\":%d,\"start_us\":%.3f,"
                    "\"end_us\":%.3f}}",
                    sp.start_us, sp.end_us - sp.start_us, i, sp.parent,
                    sp.start_us, sp.end_us);
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << sp.name << "\"," << buf;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& t, std::string name) : t_(t), id_(t.begin(std::move(name))) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// A percentile read off a sample, with the evidence behind it.
struct Pick {
  bool ok = false;          ///< false: too few samples beyond the rank
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the pick was made from
  std::size_t beyond = 0;   ///< samples strictly above the chosen rank
};

/// Samples needed above a reported percentile's rank.
inline constexpr std::size_t kMinBeyond = 10;

/// The p-th percentile (nearest rank) of `sorted` (ascending).  Refuses
/// (ok == false) unless at least kMinBeyond samples lie beyond the rank, so
/// a tail is never read off a handful of points.
inline Pick percentile(const std::vector<double>& sorted, double p) {
  Pick out;
  out.samples = sorted.size();
  if (sorted.empty() || p <= 0.0 || p >= 100.0) return out;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1;  // 0-based
  out.beyond = sorted.size() - 1 - idx;
  if (out.beyond < kMinBeyond) return out;
  out.ok = true;
  out.value = sorted[idx];
  return out;
}

/// Median of an unsorted sample (mean of the middle pair when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Metric names: [A-Za-z0-9_.-]+, starting with a letter or digit, at most
/// 64 characters.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace xdbench
