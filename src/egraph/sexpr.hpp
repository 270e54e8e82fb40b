#pragma once
// The S-expression conversion path of E-Syn [12] — reimplemented here as the
// *baseline* for the Table III conversion experiment.
//
// S-expressions are flattened abstract syntax trees: every shared node of
// the circuit DAG must be duplicated once per reference, so reconvergent
// circuits (carry chains, multipliers) blow up exponentially. All entry
// points therefore take explicit work budgets and throw SExprLimitError
// (timeout / out-of-memory) exactly like the paper's 3600 s / 8 GB guards.

#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "egraph/egraph.hpp"

namespace emorphic {

struct SExprLimits {
  /// Abort once the produced text exceeds this many characters ("MO").
  std::size_t max_chars = 1u << 26;  // 64 MiB of text
  /// Abort once this much wall-clock time is spent ("TO").
  double time_limit_s = 10.0;
};

class SExprLimitError : public std::runtime_error {
 public:
  enum class Kind { kTimeout, kMemory };
  SExprLimitError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Flatten an AIG into one S-expression per output:
///   (outputs (po_name expr) ...) with expr over (and a b), (or a b), (not a).
/// Shared nodes are duplicated — the E-Syn bottleneck under reproduction.
std::string aig_to_sexpr(const Aig& aig, const SExprLimits& limits);

struct SExprEGraph {
  EGraph egraph;
  std::vector<SerializedRoot> roots;
  std::vector<std::string> var_names;
};

/// Parse an S-expression document into a fresh e-graph.
SExprEGraph sexpr_to_egraph(const std::string& text, const SExprLimits& limits);

/// Parse an S-expression document back into an AIG (the E-Syn "backward"
/// conversion). PI names come from the document's leaves.
Aig sexpr_to_aig(const std::string& text, const SExprLimits& limits);

}  // namespace emorphic
