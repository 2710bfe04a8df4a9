// Small, dependency-free helpers the benchmark's numbers rest on:
// percentiles, open-loop schedules and lag, and the result-line JSON.
// Kept header-only so the unit tests exercise exactly this code.

#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Percentile `q` (0..100) of `values` by linear interpolation between the
/// closest ranks (the "linear" method of numpy / Python's inclusive
/// quantiles). Returns 0 for an empty input.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 100.0);
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// Geometric mean over request classes of each class's `q`-th percentile.
/// A workload mixing classes of very different cost (a 0.5 ms GET beside a
/// 20 ms uncached query) has a gap in its latency distribution, and a
/// percentile of the pooled samples that falls in the gap jumps with small
/// shifts in the mix; each class's own percentile does not. Classes with no
/// samples are skipped; returns 0 when none has any.
inline double ClassGeomean(const std::map<std::string, std::vector<double>>& by_class, double q) {
  double log_sum = 0;
  int classes = 0;
  for (const auto& [name, values] : by_class) {
    if (values.empty()) continue;
    log_sum += std::log(std::max(Percentile(values, q), 1e-9));
    ++classes;
  }
  return classes == 0 ? 0 : std::exp(log_sum / classes);
}

/// Due time (microseconds after the schedule's start) of the `index`-th
/// operation of an evenly paced open loop at `rate_per_s`.
inline int64_t DueMicros(uint64_t index, double rate_per_s) {
  return static_cast<int64_t>(std::llround(static_cast<double>(index) * 1e6 / rate_per_s));
}

/// How late one operation started against its schedule (both times in one
/// unit). An open-loop generator that cannot keep up shows here before
/// latency hides it.
inline int64_t LagMicros(int64_t due_micros, int64_t sent_micros) {
  return std::max<int64_t>(0, sent_micros - due_micros);
}

/// True when a paced phase kept up: the last operation finished within
/// `slack` of the phase's scheduled length (no growing backlog).
inline bool KeptPace(int64_t scheduled_span_micros, int64_t actual_span_micros,
                     double slack = 0.10) {
  return static_cast<double>(actual_span_micros) <=
         static_cast<double>(scheduled_span_micros) * (1.0 + slack) + 20000.0;
}

/// Shortest decimal text that reads back as exactly `value` (every digit
/// the measurement has). Non-finite values render as 0 so the JSON stays
/// valid; callers never report them on purpose.
inline std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

inline std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// One named measurement with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// The benchmark's result line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value","unit"}}}
/// Metric names are emitted in sorted order.
inline std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                              const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": ";
  out += std::to_string(attempted);
  out += ", \"failed\": ";
  out += std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\": {\"value\": ";
    out += FormatNumber(metric.value);
    out += ", \"unit\": \"";
    out += JsonEscape(metric.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
