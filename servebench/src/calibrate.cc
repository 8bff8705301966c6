// Copyright 2026 MixQ-GNN Authors
#include "calibrate.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "bench_common.h"

namespace servebench {
namespace {

/// One thread per vCPU of the reference host, as many as the program's pool.
constexpr int kThreads = 4;
/// Streaming buffer per thread: 2 MiB, past the per-core L2.
constexpr size_t kStreamWords = size_t{1} << 18;
constexpr int kStreamPasses = 16;
constexpr int kSyscalls = 6000;
constexpr int kFmaWidth = 4096;
constexpr int kFmaPasses = 1 << 12;
constexpr int kReps = 5;

std::atomic<uint64_t> g_sink{0};

/// The fixed work of one thread, about a third each of: a streaming read
/// (shared cache and memory), system calls (kernel entry and exit) and an
/// L1-resident multiply-add sweep (vector units). When other guests load the
/// host, the first two slowed by about 1.9x and the sweep by 1.6x, as the
/// program did (1.5-1.9x), while a dependent integer chain slowed by only
/// 1.15x and is left out. Results go to g_sink so none of it is optimized
/// away.
void Work(const std::vector<uint64_t>& buffer) {
  uint64_t sum = 0;
  for (int p = 0; p < kStreamPasses; ++p) {
    for (uint64_t w : buffer) sum += w;
  }
  for (int i = 0; i < kSyscalls; ++i) sum += static_cast<uint64_t>(syscall(SYS_getppid));
  float a[kFmaWidth], c[kFmaWidth];
  for (int i = 0; i < kFmaWidth; ++i) {
    a[i] = static_cast<float>(i % 7) * 0.125f;
    c[i] = static_cast<float>(i % 5) * 0.0625f;
  }
  const float b = 0.999f;
  for (int p = 0; p < kFmaPasses; ++p) {
    for (int i = 0; i < kFmaWidth; ++i) a[i] = a[i] * b + c[i];
  }
  g_sink.fetch_add(sum + static_cast<uint64_t>(a[kFmaWidth / 3] * 1e3f),
                   std::memory_order_relaxed);
}

}  // namespace

void HostSpeed::Sample() {
  // Filled before the clock starts, so no sample pays for page faults, and
  // freed on return, so at most these 8 MiB ride on the pass's peak memory.
  std::vector<std::vector<uint64_t>> buffers(kThreads, std::vector<uint64_t>(kStreamWords));
  for (std::vector<uint64_t>& b : buffers) {
    for (size_t i = 0; i < b.size(); ++i) b[i] = i * 2654435761u;
  }
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    const double c0 = ProcessCpuS();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&buffers, t] { Work(buffers[static_cast<size_t>(t)]); });
    }
    for (std::thread& th : threads) th.join();
    reps.push_back(ProcessCpuS() - c0);
  }
  samples_s_.push_back(Median(reps));
}

double HostSpeed::Slowdown() const {
  if (samples_s_.empty() || kReferenceCalibrationCpuS <= 0.0) return 1.0;
  return Median(samples_s_) / kReferenceCalibrationCpuS;
}

}  // namespace servebench
