// Copyright 2026 MixQ-GNN Authors
// The benchmark's inputs: one GCN trained with the registry's "mixq" scheme
// on the Table-3-sized citation graph, that graph, and a 100k-node
// power-law graph the same model is served on cross-graph. Training and
// graph generation run once, in a separate `prepare` process, and leave
// bundles on disk; measured runs only load them, the way mixq_serve does.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/generators.h"

namespace servebench {

/// Dataset of the trained model (cora analogue at the repository's quick
/// Table-3 size: 1000 nodes, 96 features, 7 classes).
mixq::CitationConfig CitationInputConfig();
/// Cross-graph serving target: 100k nodes, power-law degrees (alpha 2.1).
mixq::CitationConfig PowerLawInputConfig();

/// MixQ trade-off of the served model and its bit-width options.
constexpr double kMixqLambda = 0.1;

struct InputFiles {
  std::string dir;
  std::string model() const { return dir + "/model.mqb"; }
  std::string citation_graph() const { return dir + "/citation.mqb"; }
  std::string powerlaw_graph() const { return dir + "/powerlaw.mqb"; }
  /// Raw float32 [n, out_dim] logits of CompiledModel::PredictReference (the
  /// pipeline replay through the autograd modules) on the citation graph.
  std::string citation_reference() const { return dir + "/citation_reference.f32"; }
  /// Labels and test split of the citation graph.
  std::string citation_labels() const { return dir + "/citation_labels.bin"; }
  /// key=value lines describing the trained model (accuracy, bits, BitOPs).
  std::string summary() const { return dir + "/summary.txt"; }
};

/// Trains, compiles and writes every input file into `dir` (which must
/// exist). Deterministic: the same build writes the same bytes.
mixq::Status PrepareInputs(const std::string& dir);

struct CitationLabels {
  std::vector<int64_t> labels;
  std::vector<uint8_t> test_mask;
};

mixq::Result<CitationLabels> ReadCitationLabels(const std::string& path);
mixq::Result<std::vector<float>> ReadFloats(const std::string& path);
mixq::Result<std::map<std::string, std::string>> ReadSummary(
    const std::string& path);

}  // namespace servebench
