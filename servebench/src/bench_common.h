// Copyright 2026 MixQ-GNN Authors
// Shared vocabulary of the serving benchmark: sample statistics, the metric
// and phase records a run reports, and the in-memory span recorder used by
// traced runs. Everything here belongs to the harness, not the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
  return std::chrono::duration<double, std::milli>(Clock::now() - a).count();
}

/// CPU time used so far by every thread of this process, in seconds. On a
/// KVM guest with steal-time accounting it leaves out the time the host ran
/// other guests on our vCPUs, which wall time cannot; the end-to-end metrics
/// are taken on this clock (README.md, "Why CPU time").
double ProcessCpuS();

/// Linear-interpolation quantile (numpy's default); q in [0, 1]. 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Attempted / succeeded / failed counts of one workload phase, with the
/// failures broken down by the typed status they came back with.
struct PhaseCount {
  std::string name;
  int64_t attempted = 0;
  int64_t succeeded = 0;
  std::map<std::string, int64_t> failed_by_code;

  int64_t failed() const;
  void Record(const mixq::Status& status);
  void Merge(const PhaseCount& other);
};

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

/// Everything one pass of a workload produced.
struct Report {
  std::map<std::string, MetricValue> metrics;
  std::vector<PhaseCount> phases;
  /// Human-readable check failures; empty means every output check passed.
  std::vector<std::string> check_failures;
  /// Free-form detail lines printed before the result line.
  std::vector<std::string> details;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = MetricValue{value, unit};
  }
  void Fail(const std::string& what) { check_failures.push_back(what); }
  int64_t Attempted() const;
  int64_t Failed() const;
};

/// One traced interval. Spans of one request share `request`; `parent` is
/// the span id of the span that caused it (0 = root).
struct Span {
  uint64_t request = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  double start_us = 0.0;  ///< relative to the recorder's epoch
  double dur_us = 0.0;
};

/// Per-thread span buffer; kept in memory and merged when the run ends.
class SpanSink {
 public:
  SpanSink() = default;
  SpanSink(bool enabled, Clock::time_point epoch, uint64_t id_base)
      : enabled_(enabled), epoch_(epoch), next_id_(id_base) {}

  bool enabled() const { return enabled_; }

  /// Records [start, end] under `parent`; returns the new span's id (0 when
  /// tracing is off, so callers never branch on it).
  uint64_t Add(uint64_t request, uint64_t parent, const char* name,
               Clock::time_point start, Clock::time_point end);
  /// Records a span known only by its duration, placed at `start_us`
  /// relative to the epoch (program-reported timings).
  uint64_t AddRelative(uint64_t request, uint64_t parent, const char* name,
                       double start_us, double dur_us);

  double Rel(Clock::time_point t) const { return UsBetween(epoch_, t); }
  std::vector<Span>& spans() { return spans_; }

 private:
  bool enabled_ = false;
  Clock::time_point epoch_{};
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Writes spans as JSON lines to `path`; returns false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Self time per span name: each span's duration minus the part its direct
/// children cover, summarized as the median per name.
std::map<std::string, double> MedianSelfTimeUs(const std::vector<Span>& spans);

}  // namespace servebench
