// Copyright 2026 MixQ-GNN Authors
// The three serving workloads (README.md has the why of each):
//   wire-cached   remote single-node kAuto lookups, result cache on
//   wire-pruned   remote 1-16-node kAuto requests on the 100k graph, cache off
//   full-scoring  in-process whole-graph kFp32/kInt8 Submits, one at a time
// A pass sets the server up from bundles on disk, runs the workload's
// phases, checks every reply, and fills a Report with the end-to-end
// metrics. A traced pass also records spans and the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/compiled_model.h"
#include "engine/model_bundle.h"
#include "inputs.h"

namespace servebench {

enum class Workload { kWireCached, kWirePruned, kFullScoring };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Files and reference outputs shared by every pass of one process. Loaded
/// and computed outside any timed region.
struct LoadedInputs {
  InputFiles files;
  mixq::engine::CompiledModelPtr model;
  mixq::engine::GraphBundle citation;
  mixq::engine::GraphBundle powerlaw;
  /// PredictReference logits on the citation graph (the parity oracle).
  std::vector<float> citation_reference;
  CitationLabels labels;
  std::map<std::string, std::string> summary;
};

mixq::Result<LoadedInputs> LoadInputs(const std::string& dir);

struct PassOptions {
  Workload workload = Workload::kWireCached;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Runs one pass. With `trace`, spans go to `spans` and the report also
/// carries the per-layer metrics.
Report RunPass(const LoadedInputs& inputs, const PassOptions& options,
               std::vector<Span>* spans);

}  // namespace servebench
