// Copyright 2026 MixQ-GNN Authors
// Per-layer replays for traced runs: each times one layer's public entry
// points on the operands the workload actually served, outside the serving
// path, and writes its per-layer metrics into the Report.
#pragma once

#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "engine/batcher.h"
#include "engine/compiled_model.h"

namespace servebench {

/// engine.forward + kernels: times direct CompiledModel::Predict /
/// PredictQuantized with a reused PredictScratch on the pinned graph, then
/// walks the plan's steps()/int_steps() calling GemmNN, SpmmRaw /
/// SpmmPattern, GemmInt8Requant, SpmmInt8Requant and the quantize and
/// elementwise loops on the same operands. The replay's output is checked
/// bitwise against the direct forward, so it provably ran the same work.
/// Operation counts and bytes moved are computed from tensor sizes.
void ReplayForwardAndKernels(const mixq::engine::CompiledModel& model,
                             const mixq::engine::GraphContext& graph,
                             double budget_seconds, Report* report);

/// engine.frontier: BuildFrontierProgram, ExpandFrontier and
/// CsrMatrix::InducedRows on the workload's target sets (original node ids),
/// plus PredictPruned on the built programs (forward.pruned_us).
void ReplayFrontier(const mixq::engine::CompiledModel& model,
                    const mixq::engine::GraphContext& graph, bool int8,
                    const std::vector<std::vector<int64_t>>& target_sets,
                    Report* report);

/// net codec: encode + decode of the workload's request frames and of
/// response frames of the matching size; also the bytes per request.
void ReplayCodec(const std::vector<std::vector<int64_t>>& target_sets,
                 const std::string& graph_name, int64_t graph_nodes,
                 int64_t out_dim, Report* report);

}  // namespace servebench
