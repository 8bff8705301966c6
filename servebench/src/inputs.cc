// Copyright 2026 MixQ-GNN Authors
#include "inputs.h"

#include <cstdio>
#include <sstream>

#include "common/binary_io.h"
#include "core/experiment.h"
#include "engine/compiled_model.h"
#include "engine/model_bundle.h"
#include "sparse/csr.h"

namespace servebench {

using mixq::Result;
using mixq::Status;

mixq::CitationConfig CitationInputConfig() {
  mixq::CitationConfig c;
  c.name = "cora-like(quick)";
  c.num_nodes = 1000;
  c.avg_degree = 1.95;
  c.num_classes = 7;
  c.feature_dim = 96;
  c.homophily = 0.81;
  c.val_count = 200;
  c.test_count = 400;
  c.seed = 1;
  return c;
}

mixq::CitationConfig PowerLawInputConfig() {
  mixq::CitationConfig c;
  c.name = "powerlaw-100k";
  c.num_nodes = 100000;
  c.feature_dim = CitationInputConfig().feature_dim;  // the model's input width
  c.num_classes = 7;
  c.avg_degree = 3.0;
  c.power_law_alpha = 2.1;  // heavy tail: hub receptive fields stay honest
  c.train_per_class = 1;
  c.val_count = 10;
  c.test_count = 10;
  c.seed = 42;
  return c;
}

namespace {

Status WriteBytes(const std::string& path, const mixq::ByteWriter& w) {
  return mixq::WriteFileAtomic(path, w.buffer());
}

}  // namespace

Status PrepareInputs(const std::string& dir) {
  const InputFiles files{dir};

  // ---- train + compile the served model ------------------------------------
  mixq::NodeDataset citation = mixq::GenerateCitation(CitationInputConfig());
  const mixq::Graph labels_graph = citation.graph;

  mixq::NodeExperimentConfig cfg;
  cfg.model = mixq::NodeModelKind::kGcn;
  cfg.hidden = 64;
  cfg.num_layers = 2;
  cfg.dropout = 0.5f;
  cfg.train.epochs = 40;
  cfg.train.lr = 0.01f;
  cfg.train.weight_decay = 5e-4f;
  mixq::ExperimentSpec spec = mixq::ExperimentSpec::NodeClassification(
      std::move(citation), cfg, mixq::SchemeRef::MixQ(kMixqLambda, {2, 4, 8}));
  spec.seed = 1;
  spec.keep_artifact = true;
  Result<mixq::Experiment> experiment = mixq::Experiment::Create(std::move(spec));
  if (!experiment.ok()) return experiment.status();
  Result<mixq::ExperimentReport> report = experiment.ValueOrDie().Run();
  if (!report.ok()) return report.status();
  const mixq::ExperimentReport& r = report.ValueOrDie();
  Result<mixq::engine::CompiledModelPtr> compiled =
      mixq::engine::CompileModel(*r.artifact);
  if (!compiled.ok()) return compiled.status();
  const mixq::engine::CompiledModelPtr& model = compiled.ValueOrDie();

  Status s = mixq::engine::SaveBundle(*model, files.model());
  if (!s.ok()) return s;
  s = mixq::engine::SaveGraph(r.artifact->features, r.artifact->op,
                              files.citation_graph());
  if (!s.ok()) return s;

  // The parity oracle: the pipeline replay needs the live network, which
  // bundles never carry, so it is computed here and stored.
  Result<mixq::Tensor> reference =
      model->PredictReference(r.artifact->features, r.artifact->op);
  if (!reference.ok()) return reference.status();
  mixq::ByteWriter ref_bytes;
  ref_bytes.PutPodVector(reference.ValueOrDie().data());
  s = WriteBytes(files.citation_reference(), ref_bytes);
  if (!s.ok()) return s;

  mixq::ByteWriter label_bytes;
  label_bytes.PutPodVector(labels_graph.labels);
  label_bytes.PutPodVector(labels_graph.test_mask);
  s = WriteBytes(files.citation_labels(), label_bytes);
  if (!s.ok()) return s;

  // ---- cross-graph target -----------------------------------------------------
  mixq::NodeDataset big = mixq::GenerateCitation(PowerLawInputConfig());
  mixq::SparseOperatorPtr big_op =
      mixq::MakeOperator(mixq::GcnNormalize(big.graph.Adjacency()));
  s = mixq::engine::SaveGraph(big.graph.features, big_op, files.powerlaw_graph());
  if (!s.ok()) return s;

  // ---- summary ---------------------------------------------------------------
  std::ostringstream out;
  out << "scheme=" << r.scheme_label << "\n";
  out << "train_test_accuracy=" << r.node.test_metric << "\n";
  out << "avg_bits=" << r.node.avg_bits << "\n";
  out << "gbitops_citation=" << r.node.gbitops << "\n";
  out << "lowered=" << model->info().lowered << "\n";
  out << "lowered_int8=" << model->info().lowered_int8 << "\n";
  for (const auto& [component, bits] : model->info().bit_assignment) {
    out << "bits." << component << "=" << bits << "\n";
  }
  const std::string text = out.str();
  return mixq::WriteFileAtomic(files.summary(),
                               std::vector<uint8_t>(text.begin(), text.end()));
}

Result<CitationLabels> ReadCitationLabels(const std::string& path) {
  std::vector<uint8_t> bytes;
  Status s = mixq::ReadFileBytes(path, &bytes);
  if (!s.ok()) return s;
  mixq::ByteReader in(bytes.data(), bytes.size());
  CitationLabels out;
  s = in.ReadPodVector(&out.labels);
  if (s.ok()) s = in.ReadPodVector(&out.test_mask);
  if (!s.ok()) return s;
  if (out.labels.size() != out.test_mask.size()) {
    return Status::InvalidArgument("label / test-mask size mismatch");
  }
  return out;
}

Result<std::vector<float>> ReadFloats(const std::string& path) {
  std::vector<uint8_t> bytes;
  Status s = mixq::ReadFileBytes(path, &bytes);
  if (!s.ok()) return s;
  mixq::ByteReader in(bytes.data(), bytes.size());
  std::vector<float> out;
  s = in.ReadPodVector(&out);
  if (!s.ok()) return s;
  return out;
}

Result<std::map<std::string, std::string>> ReadSummary(const std::string& path) {
  std::vector<uint8_t> bytes;
  Status s = mixq::ReadFileBytes(path, &bytes);
  if (!s.ok()) return s;
  std::map<std::string, std::string> out;
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos) out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return out;
}

}  // namespace servebench
