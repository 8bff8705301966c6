// Copyright 2026 MixQ-GNN Authors
#include "bench_common.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace servebench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int64_t PhaseCount::failed() const {
  int64_t total = 0;
  for (const auto& [code, count] : failed_by_code) total += count;
  return total;
}

void PhaseCount::Record(const mixq::Status& status) {
  ++attempted;
  if (status.ok()) {
    ++succeeded;
  } else {
    ++failed_by_code[mixq::StatusCodeName(status.code())];
  }
}

void PhaseCount::Merge(const PhaseCount& other) {
  attempted += other.attempted;
  succeeded += other.succeeded;
  for (const auto& [code, count] : other.failed_by_code) {
    failed_by_code[code] += count;
  }
}

int64_t Report::Attempted() const {
  int64_t total = 0;
  for (const PhaseCount& p : phases) total += p.attempted;
  return total;
}

int64_t Report::Failed() const {
  int64_t total = 0;
  for (const PhaseCount& p : phases) total += p.failed();
  return total;
}

uint64_t SpanSink::Add(uint64_t request, uint64_t parent, const char* name,
                       Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  return AddRelative(request, parent, name, Rel(start), UsBetween(start, end));
}

uint64_t SpanSink::AddRelative(uint64_t request, uint64_t parent,
                               const char* name, double start_us,
                               double dur_us) {
  if (!enabled_) return 0;
  const uint64_t id = next_id_++;
  spans_.push_back(Span{request, id, parent, name, start_us, dur_us});
  return id;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"request\":%llu,\"span\":%llu,\"parent\":%llu,"
                 "\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name, s.start_us,
                 s.dur_us);
  }
  return std::fclose(f) == 0;
}

std::map<std::string, double> MedianSelfTimeUs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_cover;
  for (const Span& s : spans) {
    if (s.parent != 0) child_cover[s.parent] += s.dur_us;
  }
  std::map<std::string, std::vector<double>> self;
  for (const Span& s : spans) {
    const auto it = child_cover.find(s.id);
    const double covered = it == child_cover.end() ? 0.0 : it->second;
    self[s.name].push_back(std::max(0.0, s.dur_us - covered));
  }
  std::map<std::string, double> out;
  for (const auto& [name, values] : self) out[name] = Median(values);
  return out;
}

}  // namespace servebench
