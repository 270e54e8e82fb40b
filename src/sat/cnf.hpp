#pragma once
// Tseitin encoding of AIGs into CNF, miter construction for combinational
// equivalence checking, and the two-query proof of a candidate equivalent
// pair that SAT sweeping and choice verification share.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "sat/solver.hpp"

namespace emorphic::sat {

/// Encode `aig` into `solver`; returns, per AIG variable, its SAT variable.
/// The constant node is encoded as a variable forced to 0.
std::vector<SatVar> encode_aig(Solver& solver, const Aig& aig);

/// Translate an AIG literal through the encoding map.
inline SatLit lit_to_sat(const std::vector<SatVar>& map, Lit lit) {
  return sat_lit(map[lit_var(lit)], lit_is_compl(lit));
}

/// Build the standard miter over two AIGs with identical interfaces inside
/// one solver (shared PI variables): returns one SAT literal that is
/// satisfiable iff some output pair differs.
SatLit encode_miter(Solver& solver, const Aig& a, const Aig& b);

enum class PairVerdict { kEqual, kDifferent, kUndecided };

/// Decide `a == b` on the CNF already in `solver` with two assumption-only
/// queries, (a & !b) then (!a & b), each under `conflict_limit`: both UNSAT
/// proves the pair. Stops at the first query that is not UNSAT; after
/// kDifferent the solver's model is a distinguishing assignment. Adds the
/// number of queries made (1 or 2) to `queries`.
PairVerdict prove_pair(Solver& solver, SatLit a, SatLit b,
                       std::uint64_t conflict_limit, std::size_t& queries);

}  // namespace emorphic::sat
