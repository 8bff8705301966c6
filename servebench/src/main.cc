// Copyright 2026 MixQ-GNN Authors
// servebench — the repository's serving benchmark harness.
//
//   servebench prepare DIR
//       trains the served model and writes every input bundle into DIR
//   servebench run --inputs DIR --workload NAME --seed N --seconds S
//                  --trace 0|1 [--spans FILE] [--source-id ID]
//       runs one workload and prints detail lines ("# ..."), then one JSON
//       result line: {"correct", "attempted", "failed", "metrics"}
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// twice — untraced, then traced — and reports the per-layer metrics of the
// traced pass plus the tracing overhead (traced minus untraced end-to-end
// numbers), and writes the traced pass's spans to --spans as JSON lines.
// servebench/run.py builds this binary and drives it; README.md documents
// the workloads and every metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/cpu_features.h"
#include "common/parallel.h"
#include "inputs.h"
#include "workloads.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

const char* const kEndToEnd[] = {
    "setup_s",          "peak_rss_mb",         "cpu_us_per_request",
    "fp32_forward_cpu_ms", "int8_forward_cpu_ms",
};

const char* const kPerLayer[] = {
    "net.rtt_us", "net.server_us", "net.transport_us", "net.server_overhead_us",
    "net.codec_ns", "net.bytes_per_request", "wall.rtt_p50_us", "wall.served_per_s",
    "wall.fp32_forward_ms", "wall.int8_forward_ms", "openloop.p50_us", "openloop.p90_us",
    "openloop.p99_us", "loadgen.late_p99_us",
    "batcher.queue_us", "batcher.gather_us", "batcher.requests_per_forward",
    "batcher.cache_hit_ratio", "batcher.pruned_forwards", "batcher.full_forwards",
    "batcher.full_overhead_ms", "frontier.build_us", "frontier.expand_us",
    "frontier.induced_us", "frontier.rows", "forward.pruned_us", "forward.fp32_ms",
    "forward.int8_ms", "kernel.quantize_ms", "kernel.fakequant_ms",
    "kernel.gemm_fp32_ms", "kernel.spmm_fp32_ms", "kernel.elementwise_fp32_ms",
    "kernel.gemm_int8_ms", "kernel.spmm_int8_ms", "kernel.elementwise_int8_ms",
    "kernel.replay_fraction_fp32", "kernel.replay_fraction_int8",
    "setup.load_model_ms", "setup.load_graph_ms", "setup.register_graph_ms",
    "setup.server_start_ms", "host.slowdown", "trace.cpu_us_per_request_delta",
    "trace.fp32_forward_cpu_delta_ms", "trace.int8_forward_cpu_delta_ms",
    "trace.rtt_p50_delta_us",
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string HostJson(const std::string& source_id) {
  const char* threads = std::getenv("MIXQ_THREADS");
  std::ostringstream o;
  o << "{\"cpu\":\"" << JsonEscape(CpuModel()) << "\",\"nproc\":"
    << std::thread::hardware_concurrency() << ",\"kernel_isa\":\""
    << mixq::KernelIsaName(mixq::ActiveKernelIsa()) << "\",\"mixq_threads\":\""
    << (threads != nullptr ? JsonEscape(threads) : std::string("unset"))
    << "\",\"pool_threads\":" << mixq::NumThreads() << ",\"build_type\":\""
    << SERVEBENCH_BUILD_TYPE << "\",\"source\":\"" << JsonEscape(source_id) << "\"}";
  return o.str();
}

std::string PhasesJson(const std::vector<PhaseCount>& phases) {
  std::ostringstream o;
  o << "[";
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseCount& p = phases[i];
    o << (i ? "," : "") << "{\"phase\":\"" << p.name << "\",\"attempted\":"
      << p.attempted << ",\"succeeded\":" << p.succeeded << ",\"failed\":"
      << p.failed() << ",\"failed_by_code\":{";
    size_t k = 0;
    for (const auto& [code, count] : p.failed_by_code) {
      o << (k++ ? "," : "") << "\"" << code << "\":" << count;
    }
    o << "}}";
  }
  o << "]";
  return o.str();
}

/// Degree statistics of a graph bundle's operator (self loops included).
std::string GraphLine(const char* name, const mixq::engine::GraphBundle& g) {
  const mixq::CsrMatrix& a = g.op->matrix();
  std::vector<double> deg;
  deg.reserve(static_cast<size_t>(a.rows()));
  for (int64_t r = 0; r < a.rows(); ++r) deg.push_back(static_cast<double>(a.RowNnz(r)));
  std::ostringstream o;
  o << "input graph " << name << ": nodes " << a.rows() << ", nnz " << a.nnz()
    << ", features " << g.features.cols() << ", row nnz p50 " << Quantile(deg, 0.5)
    << " p99 " << Quantile(deg, 0.99) << " max " << Quantile(deg, 1.0);
  return o.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: servebench prepare DIR\n"
               "       servebench run --inputs DIR --workload "
               "wire-cached|wire-pruned|full-scoring --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--source-id ID]\n");
  return 2;
}

int Run(int argc, char** argv) {
  std::string inputs_dir, workload_name, spans_path, source_id = "unknown";
  PassOptions opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--inputs") {
      inputs_dir = value;
    } else if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
      have_seconds = opt.seconds > 0.0;
    } else if (key == "--trace") {
      opt.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--spans") {
      spans_path = value;
    } else if (key == "--source-id") {
      source_id = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 0 || inputs_dir.empty() || !have_seed || !have_seconds ||
      !have_trace || !ParseWorkload(workload_name, &opt.workload)) {
    return Usage();
  }

  mixq::Result<LoadedInputs> loaded = LoadInputs(inputs_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "loading inputs: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const LoadedInputs& in = loaded.ValueOrDie();

  std::printf("# host %s\n", HostJson(source_id).c_str());
  std::printf("# workload %s seed %llu seconds %g trace %d\n", workload_name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  for (const auto& [key, value] : in.summary) {
    std::printf("# model %s=%s\n", key.c_str(), value.c_str());
  }
  std::printf("# %s\n", GraphLine("citation", in.citation).c_str());
  std::printf("# %s\n", GraphLine("powerlaw", in.powerlaw).c_str());

  std::vector<Report> passes;
  std::vector<Span> spans;
  PassOptions untraced = opt;
  untraced.trace = false;
  passes.push_back(RunPass(in, untraced, nullptr));
  if (opt.trace) passes.push_back(RunPass(in, opt, &spans));
  const Report& last = passes.back();

  bool correct = true;
  int64_t attempted = 0, failed = 0;
  for (const Report& r : passes) {
    for (const std::string& d : r.details) std::printf("# %s\n", d.c_str());
    std::printf("# phases %s\n", PhasesJson(r.phases).c_str());
    for (const std::string& f : r.check_failures) {
      std::printf("# CHECK FAILED: %s\n", f.c_str());
    }
    correct = correct && r.check_failures.empty();
    attempted += r.Attempted();
    failed += r.Failed();
  }

  std::map<std::string, MetricValue> metrics;
  if (opt.trace) {
    const Report& base = passes.front();
    auto delta = [&](const char* name) {
      return last.metrics.at(name).value - base.metrics.at(name).value;
    };
    Report& traced = passes.back();
    traced.Set("trace.cpu_us_per_request_delta", delta("cpu_us_per_request"), "us");
    traced.Set("trace.fp32_forward_cpu_delta_ms", delta("fp32_forward_cpu_ms"), "ms");
    traced.Set("trace.int8_forward_cpu_delta_ms", delta("int8_forward_cpu_ms"), "ms");
    traced.Set("trace.rtt_p50_delta_us", delta("wall.rtt_p50_us"), "us");
    for (const char* name : kPerLayer) {
      const auto it = traced.metrics.find(name);
      if (it == traced.metrics.end()) {
        std::printf("# CHECK FAILED: per-layer metric %s missing\n", name);
        correct = false;
        continue;
      }
      metrics[name] = it->second;
    }
    if (!spans_path.empty() && !WriteSpans(spans_path, spans)) {
      std::printf("# CHECK FAILED: cannot write spans to %s\n", spans_path.c_str());
      correct = false;
    }
    std::printf("# spans %zu written to %s\n", spans.size(), spans_path.c_str());
  } else {
    for (const char* name : kEndToEnd) {
      const auto it = last.metrics.find(name);
      if (it == last.metrics.end()) {
        correct = false;
        continue;
      }
      metrics[name] = it->second;
    }
  }

  std::ostringstream o;
  o << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":"
    << attempted << ",\"failed\":" << failed << ",\"metrics\":{";
  size_t k = 0;
  for (const auto& [name, m] : metrics) {
    o << (k++ ? "," : "") << "\"" << name << "\":{\"value\":" << Number(m.value)
      << ",\"unit\":\"" << m.unit << "\"}";
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "prepare") == 0) {
    const mixq::Status s = servebench::PrepareInputs(argv[2]);
    if (!s.ok()) {
      std::fprintf(stderr, "prepare: %s\n", s.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (argc >= 2 && std::strcmp(argv[1], "run") == 0) return servebench::Run(argc, argv);
  return servebench::Usage();
}
