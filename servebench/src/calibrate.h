// Copyright 2026 MixQ-GNN Authors
// Host-speed calibration for the end-to-end metrics.
//
// The reference host is a KVM guest on physical cores shared with other
// guests. The process CPU clock already leaves out steal time, but how much
// work one CPU second does still changes with what the other guests run:
// the same whole-graph forward took 79 ms of CPU in one stretch and 142 ms
// in another, and every other CPU figure of the benchmark moved with it by
// 1.5-1.9x. A fixed piece of work that owes nothing to the program, timed on
// the same clock with one thread per vCPU, measures that factor; the
// end-to-end CPU times are divided by it, so they read as CPU time on the
// host in the state the reference constant was taken in (README.md, "Why
// CPU time, scaled").
#pragma once

#include <vector>

namespace servebench {

/// Process CPU seconds of one calibration sample on the reference host, in
/// the busy stretch in which the calibration was chosen (median of the
/// samples then); the slowdown is measured against it.
constexpr double kReferenceCalibrationCpuS = 0.0170;

class HostSpeed {
 public:
  /// Runs the calibration work five times and records the median CPU time.
  /// Call only while the program is idle: between phases, not under load.
  void Sample();

  /// Median sample over kReferenceCalibrationCpuS: > 1 when the host does
  /// less work per CPU second than in the reference state. 1 before any
  /// sample.
  double Slowdown() const;

  const std::vector<double>& samples_s() const { return samples_s_; }

 private:
  std::vector<double> samples_s_;
};

}  // namespace servebench
