// Copyright 2026 MixQ-GNN Authors
#include "layer_replay.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/binary_io.h"
#include "common/parallel.h"
#include "engine/execution_plan.h"
#include "net/wire.h"
#include "quant/requant.h"
#include "sparse/csr.h"
#include "sparse/frontier.h"
#include "tensor/gemm.h"

namespace servebench {

using mixq::engine::ExecutionPlan;

namespace {

// ---- element loops -----------------------------------------------------------
// The executor's quantize / ReLU / dequantize loops have no public entry
// point, so the replay carries copies of them: same grid arithmetic, same
// ParallelFor grain and blocking. Bitwise equality of the replay's output
// with the direct forward (checked below) keeps the copies honest.

constexpr int64_t kBlock = 256;
constexpr int64_t kGrain = 4096;

void FakeQuant(const float* x, float* out, int64_t n, const mixq::QuantParams& p) {
  const double inv_scale = 1.0 / p.scale;
  const int32_t zp = p.zero_point;
  const float scale = p.scale;
  const mixq::CodeEmitter em(p);
  mixq::ParallelFor(
      n,
      [=](int64_t i0, int64_t i1) {
        const float* __restrict xp = x;
        float* __restrict op = out;
        const mixq::CodeEmitter e = em;
        for (int64_t i = i0; i < i1; ++i) {
          const int32_t q = e.Code(static_cast<double>(xp[i]) * inv_scale);
          op[i] = static_cast<float>(q - zp) * scale;
        }
      },
      kGrain);
}

void QuantizeCodes(const float* x, int8_t* out, int64_t n, const mixq::QuantParams& p) {
  const double inv_scale = 1.0 / p.scale;
  const mixq::CodeEmitter em(p);
  mixq::ParallelFor(
      n,
      [=](int64_t i0, int64_t i1) {
        const float* __restrict xp = x;
        int8_t* __restrict op = out;
        const mixq::CodeEmitter e = em;
        int32_t tmp[kBlock];
        for (int64_t b0 = i0; b0 < i1; b0 += kBlock) {
          const int64_t bn = std::min<int64_t>(kBlock, i1 - b0);
          for (int64_t j = 0; j < bn; ++j) {
            tmp[j] = e.Code(static_cast<double>(xp[b0 + j]) * inv_scale);
          }
          for (int64_t j = 0; j < bn; ++j) op[b0 + j] = static_cast<int8_t>(tmp[j]);
        }
      },
      kGrain);
}

template <typename T>
void Relu(const T* src, T* dst, int64_t n) {
  mixq::ParallelFor(
      n,
      [=](int64_t i0, int64_t i1) {
        const T* __restrict sp = src;
        T* __restrict dp = dst;
        for (int64_t i = i0; i < i1; ++i) dp[i] = sp[i] > 0 ? sp[i] : T(0);
      },
      kGrain);
}

void AddFloat(const float* a, const float* c, float* dst, int64_t n) {
  mixq::ParallelFor(
      n,
      [=](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) dst[i] = a[i] + c[i];
      },
      kGrain);
}

void AddRequant(const int8_t* a, const int8_t* c, int8_t* dst, int64_t n,
                double s1, double s2, const mixq::CodeEmitter& em) {
  mixq::ParallelFor(
      n,
      [=](int64_t i0, int64_t i1) {
        const mixq::CodeEmitter e = em;
        for (int64_t i = i0; i < i1; ++i) {
          dst[i] = static_cast<int8_t>(e.Code(s1 * static_cast<double>(a[i]) +
                                              s2 * static_cast<double>(c[i])));
        }
      },
      kGrain);
}

void Dequantize(const int8_t* codes, float* out, int64_t n, const mixq::QuantParams& p) {
  const float scale = p.scale;
  const int32_t zp = p.zero_point;
  mixq::ParallelFor(
      n,
      [=](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          out[i] = static_cast<float>(codes[i] - zp) * scale;
        }
      },
      kGrain);
}

template <typename T>
void StripPadded(T* data, int64_t n, int64_t out, int64_t out_padded) {
  for (int64_t i = 1; i < n; ++i) {
    std::memmove(data + i * out, data + i * out_padded,
                 sizeof(T) * static_cast<size_t>(out));
  }
}

void AddBias(float* data, const float* bias, int64_t n, int64_t cols) {
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < cols; ++j) data[i * cols + j] += bias[j];
  }
}

bool SameGrid(const mixq::QuantParams& a, const mixq::QuantParams& b) {
  return a.scale == b.scale && a.zero_point == b.zero_point && a.bits == b.bits &&
         a.symmetric == b.symmetric;
}

// ---- per-kind accounting -------------------------------------------------------

enum Kind {
  kFakeQuant = 0,   // fp32 path: fake-quantize steps (incl. adjacency values)
  kGemmFp32,
  kSpmmFp32,
  kElementFp32,     // fp32 ReLU / add / padding strip / bias / output copy
  kQuantize,        // int8 path: input and adjacency code quantization
  kGemmInt8,
  kSpmmInt8,
  kElementInt8,     // int8 ReLU / add-requant / output dequantization
  kKinds
};

const char* const kKindMetric[kKinds] = {
    "kernel.fakequant_ms",   "kernel.gemm_fp32_ms",   "kernel.spmm_fp32_ms",
    "kernel.elementwise_fp32_ms", "kernel.quantize_ms", "kernel.gemm_int8_ms",
    "kernel.spmm_int8_ms",   "kernel.elementwise_int8_ms"};

struct KindCost {
  double ops = 0.0;    ///< arithmetic operations (multiply-add = 2)
  double bytes = 0.0;  ///< computed from tensor sizes
};

/// Times one call into the accumulator of `kind`.
template <typename Fn>
void Timed(double* acc_ms, Fn fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  *acc_ms += MsSince(t0);
}

/// One replay of the fp32 step list; returns the logits in `out`.
void ReplayFp32(const ExecutionPlan& plan, const float* x, int64_t n,
                const mixq::SparseOperator& op, double ms[kKinds],
                KindCost cost[kKinds], std::vector<float>* out) {
  std::vector<std::vector<float>> f(static_cast<size_t>(plan.num_buffers()));
  std::vector<float> adj_f;
  const mixq::LoweredComponent* adj_cached = nullptr;
  const mixq::CsrMatrix& a = op.matrix();
  const double nnz = static_cast<double>(a.nnz());
  auto ensure = [&](int id, int64_t cols) {
    std::vector<float>& buf = f[static_cast<size_t>(id)];
    if (buf.size() < static_cast<size_t>(n * cols)) buf.resize(static_cast<size_t>(n * cols));
    return buf.data();
  };
  auto read = [&](int id) -> const float* {
    return id == ExecutionPlan::kInput ? x : f[static_cast<size_t>(id)].data();
  };
  for (const ExecutionPlan::Step& st : plan.steps()) {
    const double count = static_cast<double>(n * st.cols);
    switch (st.op) {
      case ExecutionPlan::Op::kQuantize: {
        float* dst = ensure(st.dst, st.cols);
        const float* src = read(st.src);
        Timed(&ms[kFakeQuant], [&] { FakeQuant(src, dst, n * st.cols, st.quant.params); });
        cost[kFakeQuant].ops += count;
        cost[kFakeQuant].bytes += 8.0 * count;
        break;
      }
      case ExecutionPlan::Op::kMatMul: {
        const mixq::engine::LoweredLinear& lin =
            plan.linears()[static_cast<size_t>(st.linear)];
        const float* src = read(st.src);
        float* dst = ensure(st.dst, lin.out_padded);
        Timed(&ms[kGemmFp32], [&] {
          mixq::GemmNN(src, lin.weight_fq.data(), dst, n, lin.in, lin.out_padded);
        });
        const double m = static_cast<double>(n), k = static_cast<double>(lin.in),
                     o = static_cast<double>(lin.out_padded);
        cost[kGemmFp32].ops += 2.0 * m * k * o;
        cost[kGemmFp32].bytes += 4.0 * (m * k + k * o + m * o);
        Timed(&ms[kElementFp32], [&] {
          if (lin.out_padded != lin.out) StripPadded(dst, n, lin.out, lin.out_padded);
          if (!lin.bias.empty()) AddBias(dst, lin.bias.data(), n, lin.out);
        });
        break;
      }
      case ExecutionPlan::Op::kSpmm: {
        const mixq::LoweredComponent& aq = plan.adj_quants()[static_cast<size_t>(st.adj)];
        float* dst = ensure(st.dst, st.cols);
        const float* src = read(st.src);
        const double c = static_cast<double>(st.cols);
        cost[kSpmmFp32].ops += 2.0 * nnz * c;
        cost[kSpmmFp32].bytes +=
            12.0 * nnz + 8.0 * static_cast<double>(n + 1) + 4.0 * nnz * c + 4.0 * count;
        if (aq.identity) {
          Timed(&ms[kSpmmFp32], [&] { mixq::SpmmRaw(a, src, st.cols, dst); });
          break;
        }
        if (adj_cached == nullptr || !SameGrid(adj_cached->params, aq.params)) {
          adj_f.resize(static_cast<size_t>(a.nnz()));
          Timed(&ms[kFakeQuant], [&] {
            FakeQuant(a.values().data(), adj_f.data(), a.nnz(), aq.params);
          });
          cost[kFakeQuant].ops += nnz;
          cost[kFakeQuant].bytes += 8.0 * nnz;
          adj_cached = &aq;
        }
        Timed(&ms[kSpmmFp32],
              [&] { mixq::SpmmPattern(a, adj_f.data(), src, st.cols, dst); });
        break;
      }
      case ExecutionPlan::Op::kAdd: {
        float* dst = ensure(st.dst, st.cols);
        const float* s1 = read(st.src);
        const float* s2 = read(st.src2);
        Timed(&ms[kElementFp32], [&] { AddFloat(s1, s2, dst, n * st.cols); });
        cost[kElementFp32].ops += count;
        cost[kElementFp32].bytes += 12.0 * count;
        break;
      }
      case ExecutionPlan::Op::kRelu: {
        float* dst = ensure(st.dst, st.cols);
        const float* src = read(st.src);
        Timed(&ms[kElementFp32], [&] { Relu(src, dst, n * st.cols); });
        cost[kElementFp32].ops += count;
        cost[kElementFp32].bytes += 8.0 * count;
        break;
      }
    }
  }
  const int64_t out_count = n * plan.out_dim();
  out->resize(static_cast<size_t>(out_count));
  Timed(&ms[kElementFp32], [&] {
    std::memcpy(out->data(), read(plan.final_buffer()),
                sizeof(float) * static_cast<size_t>(out_count));
  });
  cost[kElementFp32].bytes += 8.0 * static_cast<double>(out_count);
}

/// One replay of the int8 step list (fused-epilogue kernels, the default).
void ReplayInt8(const ExecutionPlan& plan, const float* x, int64_t n,
                const mixq::SparseOperator& op, double ms[kKinds],
                KindCost cost[kKinds], std::vector<float>* out) {
  std::vector<std::vector<int8_t>> q(static_cast<size_t>(plan.num_buffers()));
  std::vector<int8_t> adj_q;
  const mixq::LoweredComponent* adj_cached = nullptr;
  const mixq::CsrMatrix& a = op.matrix();
  const double nnz = static_cast<double>(a.nnz());
  auto ensure = [&](int id, int64_t cols) {
    std::vector<int8_t>& buf = q[static_cast<size_t>(id)];
    if (buf.size() < static_cast<size_t>(n * cols)) buf.resize(static_cast<size_t>(n * cols));
    return buf.data();
  };
  auto codes = [&](int id) -> const int8_t* { return q[static_cast<size_t>(id)].data(); };
  for (const ExecutionPlan::IntStep& st : plan.int_steps()) {
    const double count = static_cast<double>(n * st.cols);
    switch (st.op) {
      case ExecutionPlan::IntOp::kQuantizeInput: {
        int8_t* dst = ensure(st.dst, st.cols);
        Timed(&ms[kQuantize], [&] { QuantizeCodes(x, dst, n * st.cols, st.out_params); });
        cost[kQuantize].ops += count;
        cost[kQuantize].bytes += 5.0 * count;
        break;
      }
      case ExecutionPlan::IntOp::kGemmRequant: {
        const mixq::engine::LoweredLinear& lin =
            plan.linears()[static_cast<size_t>(st.linear)];
        int8_t* dst = ensure(st.dst, lin.out);
        const int8_t* src = codes(st.src);
        mixq::Int8PackedWeights w;
        w.pair = lin.weight_packed.data();
        if (!lin.weight_quad.empty()) {
          w.quad = lin.weight_quad.data();
          w.corr = lin.weight_corr.data();
          w.vnni_ok = st.vnni_safe;
        }
        mixq::RequantEpilogue ep;
        ep.total = st.total;
        ep.bias = st.bias_over.empty() ? nullptr : st.bias_over.data();
        ep.emitter = st.emitter;
        Timed(&ms[kGemmInt8], [&] {
          mixq::GemmInt8Requant(src, w, n, lin.in, lin.out_padded, lin.out, ep, dst);
        });
        const double m = static_cast<double>(n), k = static_cast<double>(lin.in),
                     o = static_cast<double>(lin.out_padded);
        cost[kGemmInt8].ops += 2.0 * m * k * o;
        cost[kGemmInt8].bytes += m * k + k * o + m * static_cast<double>(lin.out);
        break;
      }
      case ExecutionPlan::IntOp::kSpmmRequant: {
        const mixq::LoweredComponent& aq = plan.adj_quants()[static_cast<size_t>(st.adj)];
        if (adj_cached == nullptr || !SameGrid(adj_cached->params, aq.params)) {
          adj_q.resize(static_cast<size_t>(a.nnz()));
          Timed(&ms[kQuantize], [&] {
            QuantizeCodes(a.values().data(), adj_q.data(), a.nnz(), aq.params);
          });
          cost[kQuantize].ops += nnz;
          cost[kQuantize].bytes += 5.0 * nnz;
          adj_cached = &aq;
        }
        int8_t* dst = ensure(st.dst, st.cols);
        const int8_t* src = codes(st.src);
        mixq::RequantEpilogue ep;
        ep.total = st.total;
        ep.emitter = st.emitter;
        Timed(&ms[kSpmmInt8], [&] {
          mixq::SpmmInt8Requant(a, adj_q.data(), src, st.cols, ep, dst);
        });
        const double c = static_cast<double>(st.cols);
        cost[kSpmmInt8].ops += 2.0 * nnz * c;
        cost[kSpmmInt8].bytes +=
            9.0 * nnz + 8.0 * static_cast<double>(n + 1) + nnz * c + count;
        break;
      }
      case ExecutionPlan::IntOp::kAddRequant: {
        int8_t* dst = ensure(st.dst, st.cols);
        Timed(&ms[kElementInt8], [&] {
          AddRequant(codes(st.src), codes(st.src2), dst, n * st.cols, st.s1, st.s2,
                     st.emitter);
        });
        cost[kElementInt8].ops += 2.0 * count;
        cost[kElementInt8].bytes += 3.0 * count;
        break;
      }
      case ExecutionPlan::IntOp::kRelu: {
        int8_t* dst = ensure(st.dst, st.cols);
        const int8_t* src = codes(st.src);
        Timed(&ms[kElementInt8], [&] { Relu(src, dst, n * st.cols); });
        cost[kElementInt8].ops += count;
        cost[kElementInt8].bytes += 2.0 * count;
        break;
      }
    }
  }
  const int64_t out_count = n * plan.out_dim();
  out->resize(static_cast<size_t>(out_count));
  Timed(&ms[kElementInt8], [&] {
    Dequantize(codes(plan.int_final_buffer()), out->data(), out_count,
               plan.int_final_params());
  });
  cost[kElementInt8].ops += static_cast<double>(out_count);
  cost[kElementInt8].bytes += 5.0 * static_cast<double>(out_count);
}

/// Median wall time (ms) of `fn` over repetitions filling `budget_s`
/// (at least 3, at most 200).
template <typename Fn>
double MedianMs(double budget_s, Fn fn) {
  std::vector<double> ms;
  const Clock::time_point start = Clock::now();
  while (ms.size() < 3 ||
         (ms.size() < 200 && MsSince(start) < budget_s * 1e3)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

}  // namespace

void ReplayForwardAndKernels(const mixq::engine::CompiledModel& model,
                             const mixq::engine::GraphContext& graph,
                             double budget_seconds, Report* report) {
  const ExecutionPlan* plan = model.plan();
  if (plan == nullptr || !plan->SupportsInt8()) {
    report->Fail("served model has no lowered int8 plan to replay");
    return;
  }
  const mixq::Tensor& features = graph.features;
  const int64_t n = features.rows();
  const float* x = features.data().data();

  // Direct forwards with a reused scratch: the engine.forward layer alone.
  mixq::engine::PredictScratch scratch;
  std::vector<float> direct[2];
  const double budget = budget_seconds / 4.0;
  const double fp32_ms = MedianMs(budget, [&] {
    direct[0] = model.Predict(features, graph.op, &scratch).ValueOrDie().data();
  });
  const double int8_ms = MedianMs(budget, [&] {
    direct[1] = model.PredictQuantized(features, graph.op, &scratch).ValueOrDie().data();
  });
  report->Set("forward.fp32_ms", fp32_ms, "ms");
  report->Set("forward.int8_ms", int8_ms, "ms");

  if (!ExecutionPlan::FusedEpilogues()) {
    report->Fail("kernel replay needs the fused int8 epilogues (MIXQ_FUSED unset)");
    return;
  }
  // Kernel replay, repeated; each kind's per-forward time is the median
  // over repetitions of that kind's summed call times.
  std::vector<double> per_kind[kKinds];
  KindCost cost[kKinds];
  std::vector<float> out;
  bool fp32_same = true, int8_same = true;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < 3 || (rep < 100 && MsSince(start) < budget * 2e3); ++rep) {
    double ms[kKinds] = {};
    KindCost rep_cost[kKinds];
    ReplayFp32(*plan, x, n, *graph.op, ms, rep_cost, &out);
    fp32_same = fp32_same && out == direct[0];
    ReplayInt8(*plan, x, n, *graph.op, ms, rep_cost, &out);
    int8_same = int8_same && out == direct[1];
    for (int k = 0; k < kKinds; ++k) {
      per_kind[k].push_back(ms[k]);
      cost[k] = rep_cost[k];
    }
  }
  if (!fp32_same) report->Fail("fp32 kernel replay differs from CompiledModel::Predict");
  if (!int8_same) {
    report->Fail("int8 kernel replay differs from CompiledModel::PredictQuantized");
  }
  double sum_fp32 = 0.0, sum_int8 = 0.0;
  for (int k = 0; k < kKinds; ++k) {
    const double ms = Median(per_kind[k]);
    report->Set(kKindMetric[k], ms, "ms");
    (k < kQuantize ? sum_fp32 : sum_int8) += ms;
    std::ostringstream d;
    d << "kernel " << kKindMetric[k] << ": " << ms << " ms/forward, "
      << cost[k].ops / 1e9 << " Gop, " << cost[k].bytes / 1e6
      << " MB moved (computed from tensor sizes), n=" << n;
    report->details.push_back(d.str());
  }
  report->Set("kernel.replay_fraction_fp32", sum_fp32 / fp32_ms, "ratio");
  report->Set("kernel.replay_fraction_int8", sum_int8 / int8_ms, "ratio");
}

void ReplayFrontier(const mixq::engine::CompiledModel& model,
                    const mixq::engine::GraphContext& graph, bool int8,
                    const std::vector<std::vector<int64_t>>& target_sets,
                    Report* report) {
  const mixq::CsrMatrix& a = graph.op->matrix();
  const int64_t n = a.rows();
  mixq::FrontierWorkspace ws;
  ws.EnsureSize(n);
  std::vector<int64_t> remap(static_cast<size_t>(n), -1);
  mixq::engine::PredictScratch scratch;
  const std::vector<float> full =
      (int8 ? model.PredictQuantized(graph.features, graph.op)
            : model.Predict(graph.features, graph.op))
          .ValueOrDie()
          .data();
  const size_t cols = static_cast<size_t>(model.info().out_dim);
  std::vector<double> build_us, expand_us, induced_us, pruned_us;
  int64_t mismatches = 0;
  for (const std::vector<int64_t>& ids : target_sets) {
    std::vector<int64_t> targets;
    for (int64_t id : ids) targets.push_back(graph.ToInternal(id));
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());

    Clock::time_point t0 = Clock::now();
    std::unique_ptr<mixq::engine::FrontierProgram> program =
        model.BuildFrontierProgram(graph.op, targets, int8, &ws, 1.0);
    build_us.push_back(UsBetween(t0, Clock::now()));

    t0 = Clock::now();
    const std::vector<int64_t> hop1 = mixq::ExpandFrontier(a, targets, true, &ws);
    expand_us.push_back(UsBetween(t0, Clock::now()));
    t0 = Clock::now();
    const std::vector<int64_t> hop2 = mixq::ExpandFrontier(a, hop1, true, &ws);
    expand_us.push_back(UsBetween(t0, Clock::now()));

    for (size_t i = 0; i < hop2.size(); ++i) {
      remap[static_cast<size_t>(hop2[i])] = static_cast<int64_t>(i);
    }
    t0 = Clock::now();
    const mixq::CsrMatrix induced =
        a.InducedRows(hop1, remap.data(), static_cast<int64_t>(hop2.size()));
    induced_us.push_back(UsBetween(t0, Clock::now()));
    for (int64_t id : hop2) remap[static_cast<size_t>(id)] = -1;

    if (program == nullptr) {
      report->Fail("BuildFrontierProgram returned no program without a cost gate");
      continue;
    }
    t0 = Clock::now();
    mixq::Result<mixq::Tensor> rows = model.PredictPruned(graph.features, *program, &scratch);
    pruned_us.push_back(UsBetween(t0, Clock::now()));
    if (!rows.ok()) {
      report->Fail("PredictPruned failed: " + rows.status().ToString());
      continue;
    }
    // k-hop locality: pruned rows are bitwise the full forward's rows.
    const std::vector<int64_t>& tg = program->targets();
    for (size_t i = 0; i < tg.size(); ++i) {
      if (std::memcmp(rows.ValueOrDie().data().data() + i * cols,
                      full.data() + static_cast<size_t>(tg[i]) * cols,
                      cols * sizeof(float)) != 0) {
        ++mismatches;
        break;
      }
    }
  }
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) + " replayed pruned forwards differ");
  }
  report->Set("frontier.build_us", Median(build_us), "us");
  report->Set("frontier.expand_us", Median(expand_us), "us");
  report->Set("frontier.induced_us", Median(induced_us), "us");
  report->Set("forward.pruned_us", Median(pruned_us), "us");
}

void ReplayCodec(const std::vector<std::vector<int64_t>>& target_sets,
                 const std::string& graph_name, int64_t graph_nodes,
                 int64_t out_dim, Report* report) {
  std::vector<mixq::net::WirePredictRequest> requests;
  std::vector<mixq::net::WirePredictResponse> responses;
  double frame_bytes = 0.0;
  for (const std::vector<int64_t>& ids : target_sets) {
    mixq::net::WirePredictRequest rq;
    rq.model = "mixq-gcn";
    rq.graph = graph_name;
    rq.node_ids = ids;
    mixq::net::WirePredictResponse rs;
    rs.rows = ids.empty() ? graph_nodes : static_cast<int64_t>(ids.size());
    rs.cols = out_dim;
    rs.data.assign(static_cast<size_t>(rs.rows * rs.cols), 0.25f);
    rs.node_ids = ids;
    rs.precision = mixq::engine::Precision::kInt8;
    mixq::ByteWriter wq, ws;
    mixq::net::EncodePredictRequest(rq, &wq);
    mixq::net::EncodePredictResponse(rs, &ws);
    frame_bytes += static_cast<double>(2 * mixq::net::kFrameHeaderBytes + wq.size() +
                                       ws.size());
    requests.push_back(std::move(rq));
    responses.push_back(std::move(rs));
  }
  int64_t calls = 0;
  const Clock::time_point start = Clock::now();
  bool ok = true;
  do {
    for (size_t i = 0; i < requests.size(); ++i) {
      mixq::ByteWriter wq;
      mixq::net::EncodePredictRequest(requests[i], &wq);
      mixq::ByteReader rq(wq.buffer().data(), wq.size());
      mixq::net::WirePredictRequest dq;
      ok = ok && mixq::net::DecodePredictRequest(&rq, &dq).ok();
      mixq::ByteWriter ws;
      mixq::net::EncodePredictResponse(responses[i], &ws);
      mixq::ByteReader rs(ws.buffer().data(), ws.size());
      mixq::net::WirePredictResponse ds;
      ok = ok && mixq::net::DecodePredictResponse(&rs, &ds).ok();
      ++calls;
    }
  } while (MsSince(start) < 200.0);
  if (!ok) report->Fail("wire codec round trip failed");
  report->Set("net.codec_ns", MsSince(start) * 1e6 / static_cast<double>(calls), "ns");
  report->Set("net.bytes_per_request",
              frame_bytes / static_cast<double>(std::max<size_t>(1, requests.size())),
              "B");
}

}  // namespace servebench
