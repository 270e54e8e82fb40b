#pragma once
// Training-set generation for the ML cost model — the OpenABC-D substitute
// (Sec. IV-D): the paper samples 100 structural variants per design module
// and labels them by mapping with the ASAP7 library. Here, variants come
// from random e-graph extraction after a short rewriting run (genuinely
// diverse *structures* of the same function), labelled by our own mapper.

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "egraph/runner.hpp"
#include "mapper/tech_mapper.hpp"
#include "ml/features.hpp"

namespace emorphic {

struct DatasetParams {
  unsigned variants_per_circuit = 40;
  RunnerParams rewrite;     // short rewriting run to open up the space
  MapperParams mapping;     // labelling effort
  std::uint64_t seed = 11;
};

struct Dataset {
  std::vector<FeatureVector> features;
  std::vector<double> delays;  // ps, from the exact mapper
  std::vector<double> areas;   // µm²

  std::size_t size() const { return features.size(); }
  void append(const Dataset& other);
};

/// Generate labelled structural variants of one circuit.
Dataset generate_variants(const Aig& circuit, const CellLibrary& library,
                          const DatasetParams& params);

/// Split into train/test by deterministic interleaving (every k-th sample
/// goes to test).
void split_dataset(const Dataset& all, unsigned test_every, Dataset* train,
                   Dataset* test);

}  // namespace emorphic
