// Copyright 2026 MixQ-GNN Authors
#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "calibrate.h"
#include "engine/inference_engine.h"
#include "layer_replay.h"
#include "net/client.h"
#include "net/server.h"

namespace servebench {

using mixq::Result;
using mixq::Status;
using mixq::Tensor;
using mixq::engine::InferenceEngine;
using mixq::engine::Precision;

namespace {

constexpr char kModelName[] = "mixq-gcn";
constexpr char kCitationGraph[] = "citation";
constexpr char kPowerLawGraph[] = "powerlaw";
/// Client threads / connections of the load generator: nproc of the
/// reference host, so the generator never needs more threads than cores.
constexpr int kClients = 4;
/// Set-ups per pass; setup_s is their median.
constexpr int kSetupReps = 5;
/// The open-loop and saturation phases are cut into this many equal time
/// windows; their latency quantiles and throughput are the median over
/// windows, so a few seconds of interference from outside the process
/// moves one window, not the run's figure.
constexpr int kWindows = 5;
/// Saturation latencies kept per client and window (reservoir sample), so
/// the harness's memory does not grow with the server's throughput.
constexpr size_t kReservoir = 4096;
/// Traced saturation phases record the spans of one request in this many:
/// wire-cached completes ~10^5 requests a second, and keeping every span
/// would take hundreds of MB.
constexpr uint64_t kSaturationSpanEvery = 64;
/// Test-split accuracy every pass must reach from served argmax rows.
/// Chance is 1/7; the trained model scores ~0.97.
constexpr double kAccuracyFloor = 0.80;
/// Int8 logits may differ from fp32 by this share of the fp32 logit range
/// (serving_test's tolerance for mixed-width int8 executors).
constexpr double kInt8RangeTolerance = 0.1;

/// Per-workload load shape. Rates and depths are fixed, chosen against the
/// capacity measured on the reference host (README.md, "Load shape").
struct Shape {
  const char* graph = kCitationGraph;
  bool remote = true;
  bool cache = true;
  double open_rate = 0.0;   ///< open-loop arrivals per second (all clients)
  int depth = 0;            ///< saturation: requests in flight per client
  int max_ids = 1;          ///< node ids per request: uniform in [1, max_ids]
  double open_share = 0.4;  ///< share of the run in the open-loop phase
  double sat_share = 0.4;   ///< ... in the saturation phase
};

Shape ShapeOf(Workload w) {
  Shape s;
  switch (w) {
    case Workload::kWireCached:
      s.open_rate = 2000.0;
      s.depth = 8;
      break;
    case Workload::kWirePruned:
      s.graph = kPowerLawGraph;
      s.cache = false;
      s.open_rate = 400.0;
      // Few in flight: coalescing depends on timing, and deeper queues let a
      // slowed host coalesce more and move cpu_us_per_request (README.md).
      s.depth = 2;
      s.max_ids = 16;
      break;
    case Workload::kFullScoring:
      s.graph = kPowerLawGraph;
      s.remote = false;
      s.cache = false;
      s.open_share = 0.0;
      s.sat_share = 0.0;
      break;
  }
  return s;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The serving stack one set-up builds: engine (+ server for remote
/// workloads). The server is declared last so it shuts down first.
struct Stack {
  std::unique_ptr<InferenceEngine> engine;
  std::unique_ptr<mixq::net::MixqServer> server;
};

/// Set-up stages on the process CPU clock (every thread, the pool's too),
/// plus the wall time of the whole set-up for the detail lines.
struct SetupTimes {
  double load_model_ms = 0.0;
  double load_graph_ms = 0.0;
  double register_graph_ms = 0.0;
  double server_start_ms = 0.0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

/// Bundles on disk -> ready to serve, timed per stage. The engine's
/// LoadModelFromFile/LoadGraphFromFile are exactly these calls; they are
/// split here only to time the stages apart.
Status SetUp(const InputFiles& files, const Shape& shape, Stack* stack,
             SetupTimes* t) {
  const Clock::time_point start = Clock::now();
  const double c0 = ProcessCpuS();
  mixq::engine::BatcherOptions options;
  options.enable_cache = shape.cache;
  stack->engine = std::make_unique<InferenceEngine>(options);
  Result<mixq::engine::CompiledModelPtr> model =
      mixq::engine::LoadBundle(files.model());
  if (!model.ok()) return model.status();
  Status s = stack->engine->RegisterModel(kModelName, model.MoveValueOrDie());
  if (!s.ok()) return s;
  const double c1 = ProcessCpuS();
  const std::string path = std::string(shape.graph) == kCitationGraph
                               ? files.citation_graph()
                               : files.powerlaw_graph();
  Result<mixq::engine::GraphBundle> graph = mixq::engine::LoadGraph(path);
  if (!graph.ok()) return graph.status();
  const double c2 = ProcessCpuS();
  mixq::engine::GraphBundle& g = graph.ValueOrDie();
  s = stack->engine->RegisterGraph(shape.graph, std::move(g.features),
                                   std::move(g.op));
  if (!s.ok()) return s;
  const double c3 = ProcessCpuS();
  if (shape.remote) {
    stack->server = std::make_unique<mixq::net::MixqServer>(
        stack->engine.get(), mixq::net::ServerOptions());
    s = stack->server->Start();
    if (!s.ok()) return s;
  }
  const double c4 = ProcessCpuS();
  t->load_model_ms = (c1 - c0) * 1e3;
  t->load_graph_ms = (c2 - c1) * 1e3;
  t->register_graph_ms = (c3 - c2) * 1e3;
  t->server_start_ms = (c4 - c3) * 1e3;
  t->cpu_s = c4 - c0;
  t->wall_s = UsBetween(start, Clock::now()) / 1e6;
  return Status::OK();
}

/// Full-graph logits of the served graph at both precisions, computed by
/// direct CompiledModel calls on the bundle's original node order — the
/// references every served row is compared against.
struct References {
  std::vector<float> fp32;
  std::vector<float> int8;
  int64_t nodes = 0;
  int64_t cols = 0;

  const std::vector<float>& For(Precision p) const {
    return p == Precision::kInt8 ? int8 : fp32;
  }
  /// True when `rows` are bitwise the reference rows of `ids` (all rows
  /// when `ids` is empty) at precision `p`.
  bool Matches(const Tensor& rows, const std::vector<int64_t>& ids,
               Precision p) const {
    const std::vector<float>& ref = For(p);
    const size_t width = static_cast<size_t>(cols);
    if (ids.empty()) {
      return rows.numel() == static_cast<int64_t>(ref.size()) &&
             std::memcmp(rows.data().data(), ref.data(),
                         ref.size() * sizeof(float)) == 0;
    }
    if (rows.numel() != static_cast<int64_t>(ids.size() * width)) return false;
    for (size_t j = 0; j < ids.size(); ++j) {
      if (ids[j] < 0 || ids[j] >= nodes) return false;
      if (std::memcmp(rows.data().data() + j * width,
                      ref.data() + static_cast<size_t>(ids[j]) * width,
                      width * sizeof(float)) != 0) {
        return false;
      }
    }
    return true;
  }
};

Result<References> ComputeReferences(const mixq::engine::CompiledModel& model,
                                     const mixq::engine::GraphBundle& g) {
  References r;
  Result<Tensor> fp32 = model.Predict(g.features, g.op);
  if (!fp32.ok()) return fp32.status();
  Result<Tensor> int8 = model.PredictQuantized(g.features, g.op);
  if (!int8.ok()) return int8.status();
  r.nodes = fp32.ValueOrDie().rows();
  r.cols = fp32.ValueOrDie().cols();
  r.fp32 = fp32.ValueOrDie().data();
  r.int8 = int8.ValueOrDie().data();
  return r;
}

/// The workload's request bodies: node-id sets drawn from `rng`. Sets of
/// more than one id mix uniform nodes with the graph's hubs (one id in
/// eight is a hub), deduplicated, in draw order.
std::vector<std::vector<int64_t>> MakeTargets(
    size_t count, int max_ids, int64_t nodes, const std::vector<int64_t>& hubs,
    std::mt19937_64* rng) {
  std::vector<std::vector<int64_t>> out(count);
  std::uniform_int_distribution<int> size_dist(1, max_ids);
  std::uniform_int_distribution<int64_t> node_dist(0, nodes - 1);
  std::uniform_int_distribution<size_t> hub_dist(0, hubs.empty() ? 0 : hubs.size() - 1);
  for (auto& ids : out) {
    const int k = size_dist(*rng);
    while (static_cast<int>(ids.size()) < k) {
      const bool hub = max_ids > 1 && !hubs.empty() && (*rng)() % 8 == 0;
      const int64_t id = hub ? hubs[hub_dist(*rng)] : node_dist(*rng);
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    }
  }
  return out;
}

/// Highest in-degree nodes of `g` (original ids).
std::vector<int64_t> Hubs(const mixq::engine::GraphBundle& g, size_t count) {
  const mixq::CsrMatrix& a = g.op->matrix();
  std::vector<int64_t> ids(static_cast<size_t>(a.rows()));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
  count = std::min(count, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(count),
                    ids.end(), [&](int64_t x, int64_t y) {
                      return a.RowNnz(x) != a.RowNnz(y) ? a.RowNnz(x) > a.RowNnz(y)
                                                        : x < y;
                    });
  ids.resize(count);
  return ids;
}

/// One completed request as the client saw it plus what the server
/// reported about it.
struct Sample {
  double latency_us = 0.0;  ///< from the scheduled send (open loop) or send
  double rtt_us = 0.0;      ///< from the actual send
  double late_us = 0.0;     ///< actual send - scheduled send
  double at_s = 0.0;        ///< scheduled send, seconds into the phase
  double server_us = 0.0;
  double total_us = 0.0;
  double queue_us = 0.0;
  double forward_us = 0.0;
  int64_t frontier_rows = 0;
  bool pruned = false;
  Precision precision = Precision::kFp32;
};

/// Per-client-thread state; merged after the threads join.
struct ClientLog {
  PhaseCount phase;
  std::vector<Sample> samples;
  int64_t mismatches = 0;
  SpanSink spans;
  /// Saturation: successful replies received in each time window, and a
  /// uniform reservoir sample of their round-trip times.
  std::vector<int64_t> window_ok = std::vector<int64_t>(kWindows, 0);
  std::vector<std::vector<double>> window_rtt =
      std::vector<std::vector<double>>(kWindows);
};

/// Records the spans of one request: the client span, and under it the
/// program-reported server / engine / queue / forward durations. Only the
/// durations are measured; child start offsets are inferred (server
/// centered in the round trip, queue then forward at the engine's start).
void TraceRequest(SpanSink* sink, uint64_t request, Clock::time_point sched,
                  Clock::time_point sent, Clock::time_point received,
                  const Sample& s, bool remote) {
  if (!sink->enabled()) return;
  const uint64_t root = sink->Add(request, 0, "client.request", sched, received);
  if (sched < sent) sink->Add(request, root, "loadgen.late", sched, sent);
  uint64_t engine_parent = root;
  double engine_start = sink->Rel(sent);
  if (remote) {
    const uint64_t rtt = sink->Add(request, root, "net.rtt", sent, received);
    const double server_start =
        sink->Rel(sent) + std::max(0.0, (s.rtt_us - s.server_us) / 2.0);
    engine_parent =
        sink->AddRelative(request, rtt, "net.server", server_start, s.server_us);
    engine_start = server_start + std::max(0.0, (s.server_us - s.total_us) / 2.0);
  }
  const uint64_t eng = sink->AddRelative(request, engine_parent, "engine.total",
                                         engine_start, s.total_us);
  sink->AddRelative(request, eng, "batcher.queue", engine_start, s.queue_us);
  if (s.forward_us > 0.0) {
    sink->AddRelative(request, eng, "engine.forward", engine_start + s.queue_us,
                      s.forward_us);
  }
}

Sample FromRemote(const mixq::net::RemoteResponse& r) {
  Sample s;
  s.server_us = r.server_us;
  s.total_us = r.total_us;
  s.queue_us = r.queue_us;
  s.forward_us = r.forward_us;
  s.frontier_rows = r.frontier_rows;
  s.pruned = r.pruned;
  s.precision = r.precision;
  return s;
}

mixq::net::RemoteRequest Remote(const std::string& graph,
                                const std::vector<int64_t>& ids, Precision p) {
  mixq::net::RemoteRequest rq;
  rq.model = kModelName;
  rq.graph = graph;
  rq.node_ids = ids;
  rq.precision = p;
  return rq;
}

/// Open loop: Poisson arrivals at `rate` for `seconds`, request i sent by
/// client i % kClients at its scheduled time and timed from it, so a stall
/// also charges the requests queued behind it.
void OpenLoop(std::vector<mixq::net::MixqClient>* clients, const Shape& shape,
              const std::vector<std::vector<int64_t>>& targets,
              const std::vector<double>& offsets_us, const References& ref,
              std::vector<ClientLog>* logs, uint64_t request_base) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ClientLog& log = (*logs)[static_cast<size_t>(t)];
      mixq::net::MixqClient& client = (*clients)[static_cast<size_t>(t)];
      for (size_t i = static_cast<size_t>(t); i < targets.size(); i += kClients) {
        const Clock::time_point sched =
            start + std::chrono::nanoseconds(
                        static_cast<int64_t>(offsets_us[i] * 1e3));
        std::this_thread::sleep_until(sched);
        const Clock::time_point sent = Clock::now();
        Result<mixq::net::RemoteResponse> r =
            client.Predict(Remote(shape.graph, targets[i], Precision::kAuto));
        const Clock::time_point received = Clock::now();
        log.phase.Record(r.status());
        if (!r.ok()) continue;
        Sample s = FromRemote(r.ValueOrDie());
        s.latency_us = UsBetween(sched, received);
        s.rtt_us = UsBetween(sent, received);
        s.late_us = UsBetween(sched, sent);
        s.at_s = offsets_us[i] / 1e6;
        if (!ref.Matches(r.ValueOrDie().rows, targets[i], s.precision)) {
          ++log.mismatches;
        }
        TraceRequest(&log.spans, request_base + i, sched, sent, received, s, true);
        log.samples.push_back(s);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

/// Per time window of the saturation phase: successful replies per second
/// (wall clock) and process CPU microseconds per successful reply.
struct SaturationResult {
  std::vector<double> rates;
  std::vector<double> cpu_us_per_request;
};

/// Closed loop at a fixed number in flight: every client keeps `depth`
/// pipelined requests outstanding until `seconds` pass, then drains. The
/// calling thread only reads the process CPU clock at the window edges.
SaturationResult Saturate(std::vector<mixq::net::MixqClient>* clients, const Shape& shape,
                          const std::vector<std::vector<int64_t>>& pool, double seconds,
                          const References& ref, std::vector<ClientLog>* logs,
                          uint64_t request_base) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  const double window_s = seconds / kWindows;
  std::vector<double> cpu_at_edge(kWindows + 1, 0.0);
  cpu_at_edge[0] = ProcessCpuS();
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ClientLog& log = (*logs)[static_cast<size_t>(t)];
      mixq::net::MixqClient& client = (*clients)[static_cast<size_t>(t)];
      size_t next = static_cast<size_t>(t) * pool.size() / kClients;
      uint64_t serial = 0;
      std::mt19937_64 reservoir_rng(static_cast<uint64_t>(t) + 1);
      struct InFlight {
        size_t target;
        uint64_t request;
        Clock::time_point sent;
      };
      std::deque<InFlight> in_flight;
      auto send_one = [&]() -> bool {
        const size_t idx = next++ % pool.size();
        uint64_t id = 0;
        const Clock::time_point sent = Clock::now();
        Status s = client.Send(Remote(shape.graph, pool[idx], Precision::kAuto), &id);
        if (!s.ok()) {
          log.phase.Record(s);
          return false;
        }
        in_flight.push_back(
            {idx, request_base + (static_cast<uint64_t>(t) << 32) + serial++, sent});
        return true;
      };
      bool healthy = true;
      for (int d = 0; d < shape.depth && healthy; ++d) healthy = send_one();
      while (!in_flight.empty()) {
        Result<mixq::net::RemoteReply> reply = client.Receive();
        const Clock::time_point received = Clock::now();
        const InFlight f = in_flight.front();
        in_flight.pop_front();
        if (!reply.ok()) {
          // Transport failure: every outstanding request is lost with it.
          log.phase.Record(reply.status());
          for (size_t k = 0; k < in_flight.size(); ++k) log.phase.Record(reply.status());
          in_flight.clear();
          break;
        }
        const mixq::net::RemoteReply& rr = reply.ValueOrDie();
        log.phase.Record(rr.status);
        if (rr.status.ok()) {
          const double at = UsBetween(start, received) / 1e6;
          Sample s = FromRemote(rr.response);
          s.rtt_us = UsBetween(f.sent, received);
          if (received < end) {
            const size_t w =
                std::min<size_t>(kWindows - 1, static_cast<size_t>(at / window_s));
            const int64_t seen = log.window_ok[w]++;
            std::vector<double>& kept = log.window_rtt[w];
            if (kept.size() < kReservoir) {
              kept.push_back(s.rtt_us);
            } else {
              const uint64_t j = reservoir_rng() % static_cast<uint64_t>(seen + 1);
              if (j < kReservoir) kept[j] = s.rtt_us;
            }
          }
          s.latency_us = s.rtt_us;
          if (!ref.Matches(rr.response.rows, pool[f.target], s.precision)) {
            ++log.mismatches;
          }
          if (f.request % kSaturationSpanEvery == 0) {
            TraceRequest(&log.spans, f.request, f.sent, f.sent, received, s, true);
          }
        }
        if (healthy && received < end) healthy = send_one();
      }
    });
  }
  for (size_t w = 1; w <= kWindows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(static_cast<int64_t>(window_s * 1e6 * w)));
    cpu_at_edge[w] = ProcessCpuS();
  }
  for (std::thread& th : threads) th.join();
  SaturationResult out;
  for (size_t w = 0; w < kWindows; ++w) {
    int64_t ok = 0;
    for (const ClientLog& log : *logs) ok += log.window_ok[w];
    out.rates.push_back(static_cast<double>(ok) / window_s);
    if (ok > 0) {
      out.cpu_us_per_request.push_back((cpu_at_edge[w + 1] - cpu_at_edge[w]) * 1e6 /
                                       static_cast<double>(ok));
    }
  }
  return out;
}

/// Whole-graph requests one at a time, alternating kFp32 and kInt8 (the
/// seed picks which goes first), in whole rounds until `seconds` pass.
/// `submit` runs one request and returns its rows and sample.
struct WholeGraphResult {
  std::vector<double> fp32_ms;      ///< wall time per request
  std::vector<double> int8_ms;
  std::vector<double> fp32_cpu_ms;  ///< process CPU time per request
  std::vector<double> int8_cpu_ms;
  std::vector<double> round_mean_us;      ///< per round: mean of its two latencies
  std::vector<double> round_cpu_mean_us;  ///< ... of its two CPU times
  double seconds = 0.0;
};

template <typename SubmitFn>
WholeGraphResult WholeGraph(double seconds, bool fp32_first, const References& ref,
                            ClientLog* log, uint64_t request_base, HostSpeed* speed,
                            SubmitFn submit) {
  WholeGraphResult out;
  const Clock::time_point start = Clock::now();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kWindows));
  Clock::time_point next_sample = start + period;
  uint64_t request = request_base;
  do {
    if (Clock::now() >= next_sample) {  // between rounds, the program idle
      speed->Sample();
      next_sample += period;
    }
    double round_us = 0.0, round_cpu_us = 0.0;
    for (int k = 0; k < 2; ++k) {
      const bool fp32 = (k == 0) == fp32_first;
      const Precision p = fp32 ? Precision::kFp32 : Precision::kInt8;
      Tensor rows;
      Sample s;
      const double cpu0 = ProcessCpuS();
      const Clock::time_point sent = Clock::now();
      const Status status = submit(p, &rows, &s);
      const Clock::time_point received = Clock::now();
      const double cpu_us = (ProcessCpuS() - cpu0) * 1e6;
      log->phase.Record(status);
      if (!status.ok()) continue;
      s.rtt_us = UsBetween(sent, received);
      s.latency_us = s.rtt_us;
      if (s.precision != p || !ref.Matches(rows, {}, p)) ++log->mismatches;
      (fp32 ? out.fp32_ms : out.int8_ms).push_back(s.rtt_us / 1e3);
      (fp32 ? out.fp32_cpu_ms : out.int8_cpu_ms).push_back(cpu_us / 1e3);
      round_us += s.rtt_us / 2.0;
      round_cpu_us += cpu_us / 2.0;
      TraceRequest(&log->spans, request++, sent, sent, received, s,
                   s.server_us > 0.0);
      log->samples.push_back(s);
    }
    out.round_mean_us.push_back(round_us);
    out.round_cpu_mean_us.push_back(round_cpu_us);
  } while (Clock::now() - start < std::chrono::duration<double>(seconds));
  out.seconds = UsBetween(start, Clock::now()) / 1e6;
  return out;
}

PhaseCount MergeLogs(const char* name, std::vector<ClientLog>* logs,
                     std::vector<Sample>* samples, int64_t* mismatches,
                     std::vector<Span>* spans) {
  PhaseCount phase;
  phase.name = name;
  for (ClientLog& log : *logs) {
    phase.Merge(log.phase);
    if (samples != nullptr) {
      samples->insert(samples->end(), log.samples.begin(), log.samples.end());
    }
    *mismatches += log.mismatches;
    if (spans != nullptr) {
      spans->insert(spans->end(), log.spans.spans().begin(), log.spans.spans().end());
    }
  }
  return phase;
}

std::vector<ClientLog> MakeLogs(int count, bool trace, Clock::time_point epoch,
                                uint64_t phase_tag) {
  std::vector<ClientLog> logs(static_cast<size_t>(count));
  for (int t = 0; t < count; ++t) {
    logs[static_cast<size_t>(t)].spans =
        SpanSink(trace, epoch, (phase_tag << 48) + (static_cast<uint64_t>(t) << 40) + 1);
  }
  return logs;
}

/// Accuracy and parity probe on the citation graph through the engine:
/// served fp32 rows must equal the pipeline replay bitwise, served int8
/// rows must stay within the Theorem-1 rounding tolerance of them, and the
/// test-split accuracy of the served argmax must clear kAccuracyFloor.
void CheckCitation(InferenceEngine* engine, const LoadedInputs& in,
                   PhaseCount* phase, Report* report) {
  Tensor served[2];
  const Precision precisions[2] = {Precision::kFp32, Precision::kInt8};
  for (int k = 0; k < 2; ++k) {
    mixq::engine::PredictRequest rq;
    rq.model = kModelName;
    rq.graph = kCitationGraph;
    rq.precision = precisions[k];
    Result<mixq::engine::PredictResponse> r = engine->Submit(std::move(rq)).get();
    phase->Record(r.status());
    if (!r.ok()) {
      report->Fail("citation probe failed: " + r.status().ToString());
      return;
    }
    served[k] = r.ValueOrDie().rows;
  }
  const std::vector<float>& ref = in.citation_reference;
  const std::vector<float>& fp32 = served[0].data();
  const std::vector<float>& int8 = served[1].data();
  if (fp32.size() != ref.size() ||
      std::memcmp(fp32.data(), ref.data(), ref.size() * sizeof(float)) != 0) {
    report->Fail("served fp32 citation logits differ from PredictReference");
    return;
  }
  const auto [lo, hi] = std::minmax_element(ref.begin(), ref.end());
  const double range = static_cast<double>(*hi) - *lo;
  double max_diff = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(static_cast<double>(int8[i]) - ref[i]));
  }
  if (!(max_diff <= kInt8RangeTolerance * range + 1e-6)) {
    report->Fail("int8 citation logits off by " + std::to_string(max_diff) +
                 " (range " + std::to_string(range) + ")");
  }
  const int64_t cols = served[0].cols();
  double acc[2] = {0.0, 0.0};
  int64_t tested = 0;
  for (size_t i = 0; i < in.labels.labels.size(); ++i) {
    if (!in.labels.test_mask[i]) continue;
    ++tested;
    for (int k = 0; k < 2; ++k) {
      const float* row = served[k].data().data() + i * static_cast<size_t>(cols);
      const int64_t pred = std::max_element(row, row + cols) - row;
      if (pred == in.labels.labels[i]) acc[k] += 1.0;
    }
  }
  for (double& a : acc) a /= static_cast<double>(std::max<int64_t>(tested, 1));
  std::ostringstream d;
  d << "check: citation test accuracy from served rows fp32 " << acc[0]
    << " int8 " << acc[1] << " (floor " << kAccuracyFloor << ", " << tested
    << " test nodes); int8 max |diff| " << max_diff << " of range " << range;
  report->details.push_back(d.str());
  if (acc[0] < kAccuracyFloor || acc[1] < kAccuracyFloor) {
    report->Fail("served test accuracy below floor");
  }
}

/// Median over time windows of each window's `q` quantile.
double MedianOfWindows(const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Quantile(w, q));
  }
  return Median(per_window);
}

/// Open-loop latencies grouped by the window their send was scheduled in.
std::vector<std::vector<double>> OpenLoopWindows(const std::vector<Sample>& samples,
                                                 double phase_s) {
  std::vector<std::vector<double>> windows(kWindows);
  for (const Sample& s : samples) {
    const size_t w = std::min<size_t>(
        kWindows - 1, static_cast<size_t>(s.at_s / (phase_s / kWindows)));
    windows[w].push_back(s.latency_us);
  }
  return windows;
}

/// Saturation round trips of all clients grouped by window.
std::vector<std::vector<double>> SaturationWindows(const std::vector<ClientLog>& logs) {
  std::vector<std::vector<double>> windows(kWindows);
  for (const ClientLog& log : logs) {
    for (size_t w = 0; w < windows.size(); ++w) {
      windows[w].insert(windows[w].end(), log.window_rtt[w].begin(),
                        log.window_rtt[w].end());
    }
  }
  return windows;
}

/// Whole-graph round means grouped into kWindows consecutive runs of rounds.
std::vector<std::vector<double>> RoundWindows(const std::vector<double>& rounds) {
  std::vector<std::vector<double>> windows(kWindows);
  for (size_t i = 0; i < rounds.size(); ++i) {
    windows[i * kWindows / rounds.size()].push_back(rounds[i]);
  }
  return windows;
}

double Delta(const InferenceEngine::Stats& a, const InferenceEngine::Stats& b,
             int64_t mixq::engine::Batcher::Stats::*field) {
  return static_cast<double>(b.batcher.*field - a.batcher.*field);
}

std::vector<double> Collect(const std::vector<Sample>& samples,
                            double (*f)(const Sample&)) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(f(s));
  return out;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kWireCached, Workload::kWirePruned,
                     Workload::kFullScoring}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kWireCached: return "wire-cached";
    case Workload::kWirePruned: return "wire-pruned";
    case Workload::kFullScoring: return "full-scoring";
  }
  return "?";
}

Result<LoadedInputs> LoadInputs(const std::string& dir) {
  LoadedInputs in;
  in.files.dir = dir;
  Result<mixq::engine::CompiledModelPtr> model =
      mixq::engine::LoadBundle(in.files.model());
  if (!model.ok()) return model.status();
  in.model = model.MoveValueOrDie();
  Result<mixq::engine::GraphBundle> citation =
      mixq::engine::LoadGraph(in.files.citation_graph());
  if (!citation.ok()) return citation.status();
  in.citation = citation.MoveValueOrDie();
  Result<mixq::engine::GraphBundle> powerlaw =
      mixq::engine::LoadGraph(in.files.powerlaw_graph());
  if (!powerlaw.ok()) return powerlaw.status();
  in.powerlaw = powerlaw.MoveValueOrDie();
  Result<std::vector<float>> ref = ReadFloats(in.files.citation_reference());
  if (!ref.ok()) return ref.status();
  in.citation_reference = ref.MoveValueOrDie();
  Result<CitationLabels> labels = ReadCitationLabels(in.files.citation_labels());
  if (!labels.ok()) return labels.status();
  in.labels = labels.MoveValueOrDie();
  Result<std::map<std::string, std::string>> summary = ReadSummary(in.files.summary());
  if (!summary.ok()) return summary.status();
  in.summary = summary.MoveValueOrDie();
  return in;
}

Report RunPass(const LoadedInputs& in, const PassOptions& opt,
               std::vector<Span>* spans) {
  Report report;
  const Shape shape = ShapeOf(opt.workload);
  const bool on_citation = std::string(shape.graph) == kCitationGraph;
  const mixq::engine::GraphBundle& bundle = on_citation ? in.citation : in.powerlaw;

  // ---- references + inputs (not timed) --------------------------------------
  Result<References> ref_or = ComputeReferences(*in.model, bundle);
  if (!ref_or.ok()) {
    report.Fail("reference forward failed: " + ref_or.status().ToString());
    return report;
  }
  const References& ref = ref_or.ValueOrDie();
  std::mt19937_64 rng(opt.seed * 0x9E3779B97F4A7C15ull + 17);
  const std::vector<int64_t> hubs = Hubs(bundle, 32);

  // ---- set-up, kSetupReps times; the last stack serves ----------------------
  HostSpeed speed;
  speed.Sample();
  Stack stack;
  std::vector<double> setup_s, setup_wall_s, load_model, load_graph, register_graph,
      server_start;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack = Stack();  // tear the previous stack down before timing the next
    SetupTimes t;
    const Status s = SetUp(in.files, shape, &stack, &t);
    if (!s.ok()) {
      report.Fail("set-up failed: " + s.ToString());
      return report;
    }
    setup_s.push_back(t.cpu_s);
    setup_wall_s.push_back(t.wall_s);
    load_model.push_back(t.load_model_ms);
    load_graph.push_back(t.load_graph_ms);
    register_graph.push_back(t.register_graph_ms);
    server_start.push_back(t.server_start_ms);
  }
  speed.Sample();
  InferenceEngine* engine = stack.engine.get();
  if (!on_citation) {
    // The accuracy probe needs the citation graph too; registered after the
    // timed set-up so setup_s covers only what the workload serves.
    const Status s = engine->RegisterGraph(kCitationGraph, in.citation.features,
                                           in.citation.op);
    if (!s.ok()) report.Fail("citation registration failed: " + s.ToString());
  }

  const Clock::time_point epoch = Clock::now();
  std::vector<Sample> open_samples, whole_samples;
  int64_t mismatches = 0;
  WholeGraphResult whole;
  SaturationResult sat;
  std::vector<std::vector<double>> sat_windows;
  double open_seconds = 0.0;
  std::vector<std::vector<int64_t>> open_targets;
  InferenceEngine::Stats before{}, after{};

  if (shape.remote) {
    std::vector<mixq::net::MixqClient> clients;
    for (int t = 0; t < kClients; ++t) {
      Result<mixq::net::MixqClient> c =
          mixq::net::MixqClient::Connect("127.0.0.1", stack.server->port());
      if (!c.ok()) {
        report.Fail("connect failed: " + c.status().ToString());
        return report;
      }
      clients.push_back(c.MoveValueOrDie());
    }

    // Warm-up: fills the result cache (wire-cached) and the scratch buffers.
    {
      std::vector<ClientLog> logs = MakeLogs(1, false, epoch, 0);
      std::vector<std::vector<int64_t>> warm =
          MakeTargets(32, shape.max_ids, ref.nodes, hubs, &rng);
      for (const auto& ids : warm) {
        Result<mixq::net::RemoteResponse> r =
            clients[0].Predict(Remote(shape.graph, ids, Precision::kAuto));
        logs[0].phase.Record(r.status());
        if (r.ok() && !ref.Matches(r.ValueOrDie().rows, ids, r.ValueOrDie().precision)) {
          ++logs[0].mismatches;
        }
      }
      std::vector<Sample> ignored;
      report.phases.push_back(MergeLogs("warmup", &logs, &ignored, &mismatches, nullptr));
    }
    speed.Sample();
    before = engine->GetStats();

    // Open loop.
    open_seconds = opt.seconds * shape.open_share;
    const size_t open_count =
        std::max<size_t>(1, static_cast<size_t>(shape.open_rate * open_seconds));
    open_targets = MakeTargets(open_count, shape.max_ids, ref.nodes, hubs, &rng);
    std::vector<double> offsets(open_count);
    std::exponential_distribution<double> gap(shape.open_rate / 1e6);
    double at = 0.0;
    for (double& o : offsets) {
      o = at;
      at += gap(rng);
    }
    {
      std::vector<ClientLog> logs = MakeLogs(kClients, opt.trace, epoch, 1);
      OpenLoop(&clients, shape, open_targets, offsets, ref, &logs, 1ull << 56);
      report.phases.push_back(
          MergeLogs("open_loop", &logs, &open_samples, &mismatches, spans));
    }
    speed.Sample();

    // Saturation.
    {
      const std::vector<std::vector<int64_t>> pool =
          MakeTargets(4096, shape.max_ids, ref.nodes, hubs, &rng);
      std::vector<ClientLog> logs = MakeLogs(kClients, opt.trace, epoch, 2);
      sat = Saturate(&clients, shape, pool, opt.seconds * shape.sat_share,
                     ref, &logs, 2ull << 56);
      sat_windows = SaturationWindows(logs);
      report.phases.push_back(
          MergeLogs("saturation", &logs, nullptr, &mismatches, spans));
    }
    after = engine->GetStats();
    speed.Sample();

    // Whole-graph requests through the same connection.
    {
      std::vector<ClientLog> logs = MakeLogs(1, opt.trace, epoch, 3);
      mixq::net::MixqClient& client = clients[0];
      const std::string graph = shape.graph;
      whole = WholeGraph(
          opt.seconds * (1.0 - shape.open_share - shape.sat_share), opt.seed % 2 == 0,
          ref, &logs[0], 3ull << 56, &speed, [&](Precision p, Tensor* rows, Sample* s) {
            Result<mixq::net::RemoteResponse> r = client.Predict(Remote(graph, {}, p));
            if (!r.ok()) return r.status();
            *s = FromRemote(r.ValueOrDie());
            *rows = r.ValueOrDie().rows;
            return Status::OK();
          });
      report.phases.push_back(
          MergeLogs("whole_graph", &logs, &whole_samples, &mismatches, spans));
    }
  } else {
    std::vector<ClientLog> logs = MakeLogs(1, opt.trace, epoch, 3);
    before = engine->GetStats();
    const std::string graph = shape.graph;
    whole = WholeGraph(opt.seconds, opt.seed % 2 == 0, ref, &logs[0], 3ull << 56, &speed,
                       [&](Precision p, Tensor* rows, Sample* s) {
                         mixq::engine::PredictRequest rq;
                         rq.model = kModelName;
                         rq.graph = graph;
                         rq.precision = p;
                         Result<mixq::engine::PredictResponse> r =
                             engine->Submit(std::move(rq)).get();
                         if (!r.ok()) return r.status();
                         const mixq::engine::PredictResponse& pr = r.ValueOrDie();
                         s->total_us = pr.total_us;
                         s->queue_us = pr.queue_us;
                         s->forward_us = pr.forward_us;
                         s->precision = pr.precision;
                         *rows = pr.rows;
                         return Status::OK();
                       });
    after = engine->GetStats();
    report.phases.push_back(
        MergeLogs("whole_graph", &logs, &whole_samples, &mismatches, spans));
  }

  speed.Sample();
  {
    PhaseCount probe;
    probe.name = "citation_probe";
    CheckCitation(engine, in, &probe, &report);
    report.phases.push_back(probe);
  }
  if (mismatches > 0) {
    report.Fail(std::to_string(mismatches) +
                " served replies differ from the full forward's rows");
  }

  // ---- end-to-end metrics: process CPU time over the host slowdown -----------
  // Whole-graph requests take the 10th percentile: a request's cost when no
  // other guest's cache traffic disturbed it. On wire-cached's 0.3 ms replies
  // the median follows how often that happened in the run (README.md).
  const double slowdown = speed.Slowdown();
  const double fp32_cpu_ms = Quantile(whole.fp32_cpu_ms, 0.1);
  const double int8_cpu_ms = Quantile(whole.int8_cpu_ms, 0.1);
  const double cpu_us = shape.remote ? Median(sat.cpu_us_per_request)
                                     : Median(whole.round_cpu_mean_us);
  report.Set("setup_s", Median(setup_s) / slowdown, "s");
  report.Set("fp32_forward_cpu_ms", fp32_cpu_ms / slowdown, "ms");
  report.Set("int8_forward_cpu_ms", int8_cpu_ms / slowdown, "ms");
  report.Set("cpu_us_per_request", cpu_us / slowdown, "us");
  report.Set("host.slowdown", slowdown, "ratio");
  {
    std::ostringstream d;
    d << "host slowdown " << slowdown << " (median of " << speed.samples_s().size()
      << " calibration samples, cpu s:";
    for (double c : speed.samples_s()) d << " " << c;
    d << "; reference " << kReferenceCalibrationCpuS << "); unscaled cpu: setup_s "
      << Median(setup_s) << ", cpu_us_per_request " << cpu_us << ", fp32_forward_cpu_ms "
      << fp32_cpu_ms << ", int8_forward_cpu_ms " << int8_cpu_ms;
    report.details.push_back(d.str());
  }
  // ---- the same traffic on the wall clock (per-layer metrics) ---------------
  report.Set("wall.fp32_forward_ms", Median(whole.fp32_ms), "ms");
  report.Set("wall.int8_forward_ms", Median(whole.int8_ms), "ms");
  if (shape.remote) {
    report.Set("wall.rtt_p50_us", MedianOfWindows(sat_windows, 0.5), "us");
    report.Set("wall.served_per_s", Median(sat.rates), "req/s");
    const std::vector<std::vector<double>> open = OpenLoopWindows(open_samples, open_seconds);
    report.Set("openloop.p50_us", MedianOfWindows(open, 0.5), "us");
    report.Set("openloop.p90_us", MedianOfWindows(open, 0.9), "us");
    report.Set("openloop.p99_us",
               Quantile(Collect(open_samples, [](const Sample& s) { return s.latency_us; }),
                        0.99),
               "us");
  } else {
    const std::vector<std::vector<double>> rounds = RoundWindows(whole.round_mean_us);
    report.Set("wall.rtt_p50_us", MedianOfWindows(rounds, 0.5), "us");
    for (const char* name : {"openloop.p50_us", "openloop.p90_us", "openloop.p99_us"}) {
      report.Set(name, 0.0, "us");
    }
    report.Set("wall.served_per_s",
               static_cast<double>(report.phases[0].succeeded) /
                   std::max(whole.seconds, 1e-9),
               "req/s");
  }

  {
    std::ostringstream d;
    d << "samples: open_loop " << open_samples.size() << ", saturation "
      << report.phases[shape.remote ? 2 : 0].succeeded << ", whole_graph fp32 "
      << whole.fp32_ms.size()
      << " int8 " << whole.int8_ms.size() << "; open-loop rate "
      << shape.open_rate << "/s, in flight " << shape.depth * kClients;
    const std::vector<double> lat =
        Collect(open_samples, [](const Sample& s) { return s.latency_us; });
    d << "; open-loop latency us p50 " << Quantile(lat, 0.5) << " p90 "
      << Quantile(lat, 0.9) << " p95 " << Quantile(lat, 0.95) << " p99 "
      << Quantile(lat, 0.99) << " p99.9 " << Quantile(lat, 0.999)
      << "; whole-graph ms fp32 p10/p50/p90 " << Quantile(whole.fp32_ms, 0.1) << "/"
      << Quantile(whole.fp32_ms, 0.5) << "/" << Quantile(whole.fp32_ms, 0.9)
      << " int8 " << Quantile(whole.int8_ms, 0.1) << "/" << Quantile(whole.int8_ms, 0.5)
      << "/" << Quantile(whole.int8_ms, 0.9) << "; whole-graph cpu ms fp32 p10/p50/p90 "
      << Quantile(whole.fp32_cpu_ms, 0.1) << "/" << Median(whole.fp32_cpu_ms) << "/"
      << Quantile(whole.fp32_cpu_ms, 0.9) << " int8 " << Quantile(whole.int8_cpu_ms, 0.1)
      << "/" << Median(whole.int8_cpu_ms) << "/" << Quantile(whole.int8_cpu_ms, 0.9)
      << "; saturation cpu us/request per window";
    for (double c : sat.cpu_us_per_request) d << " " << c;
    d << "; set-up cpu s median " << Median(setup_s) << ", wall s median "
      << Median(setup_wall_s);
    report.details.push_back(d.str());
  }

  if (opt.trace) {
    // ---- per-layer metrics -----------------------------------------------------
    const std::vector<Sample>& base = shape.remote ? open_samples : whole_samples;
    auto p50 = [&](double (*f)(const Sample&)) { return Quantile(Collect(base, f), 0.5); };
    if (shape.remote) {
      report.Set("net.rtt_us", p50([](const Sample& s) { return s.rtt_us; }), "us");
      report.Set("net.server_us", p50([](const Sample& s) { return s.server_us; }), "us");
      report.Set("net.transport_us",
                 p50([](const Sample& s) { return s.rtt_us - s.server_us; }), "us");
      report.Set("net.server_overhead_us",
                 p50([](const Sample& s) { return s.server_us - s.total_us; }), "us");
      report.Set("loadgen.late_p99_us",
                 Quantile(Collect(open_samples, [](const Sample& s) { return s.late_us; }),
                          0.99),
                 "us");
    } else {
      for (const char* name : {"net.rtt_us", "net.server_us", "net.transport_us",
                               "net.server_overhead_us", "loadgen.late_p99_us"}) {
        report.Set(name, 0.0, "us");
      }
    }
    report.Set("batcher.queue_us", p50([](const Sample& s) { return s.queue_us; }), "us");
    report.Set("batcher.gather_us",
               p50([](const Sample& s) { return s.total_us - s.queue_us - s.forward_us; }),
               "us");
    const double forwards = Delta(before, after, &mixq::engine::Batcher::Stats::forwards);
    const double hits = Delta(before, after, &mixq::engine::Batcher::Stats::cache_hits);
    const double served = Delta(before, after, &mixq::engine::Batcher::Stats::submitted);
    report.Set("batcher.requests_per_forward",
               forwards > 0 ? (served - hits) / forwards : 0.0, "ratio");
    report.Set("batcher.cache_hit_ratio", served > 0 ? hits / served : 0.0, "ratio");
    report.Set("batcher.pruned_forwards",
               Delta(before, after, &mixq::engine::Batcher::Stats::pruned_forwards),
               "count");
    report.Set("batcher.full_forwards",
               Delta(before, after, &mixq::engine::Batcher::Stats::full_forwards),
               "count");
    std::vector<double> rows;
    for (const Sample& s : open_samples) {
      if (s.pruned) rows.push_back(static_cast<double>(s.frontier_rows));
    }
    report.Set("frontier.rows", Quantile(rows, 0.5), "rows");
    for (const auto& [name, us] : MedianSelfTimeUs(*spans)) {
      std::ostringstream d;
      d << "self time p50 " << name << " " << us << " us";
      report.details.push_back(d.str());
    }

    report.Set("setup.load_model_ms", Median(load_model) / slowdown, "ms");
    report.Set("setup.load_graph_ms", Median(load_graph) / slowdown, "ms");
    report.Set("setup.register_graph_ms", Median(register_graph) / slowdown, "ms");
    report.Set("setup.server_start_ms", Median(server_start) / slowdown, "ms");

    Result<mixq::engine::GraphContextPtr> ctx = engine->GetGraph(shape.graph);
    if (!ctx.ok()) {
      report.Fail("graph lookup failed: " + ctx.status().ToString());
    } else {
      const mixq::engine::GraphContext& g = *ctx.ValueOrDie();
      ReplayForwardAndKernels(*in.model, g, shape.remote ? 1.0 : 2.0, &report);
      // Submit time minus the direct forward at the same precision.
      report.Set("batcher.full_overhead_ms",
                 0.5 * (Median(whole.fp32_ms) - report.metrics["forward.fp32_ms"].value) +
                     0.5 * (Median(whole.int8_ms) -
                            report.metrics["forward.int8_ms"].value),
                 "ms");
      std::vector<std::vector<int64_t>> sets = open_targets;
      if (sets.empty()) {
        // full-scoring bypasses the frontier; replay wire-pruned-shaped sets.
        sets = MakeTargets(256, ShapeOf(Workload::kWirePruned).max_ids, ref.nodes,
                           hubs, &rng);
      }
      if (sets.size() > 256) sets.resize(256);
      ReplayFrontier(*in.model, g, /*int8=*/true, sets, &report);
      ReplayCodec(shape.remote ? sets : std::vector<std::vector<int64_t>>{{}},
                  shape.graph, ref.nodes, ref.cols, &report);
    }
  }

  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  return report;
}

}  // namespace servebench
