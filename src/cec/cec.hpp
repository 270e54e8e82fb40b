#pragma once
// Combinational equivalence checking, the role ABC's `cec` plays in the
// paper (every E-morphic output is verified, Sec. IV-A):
//  1. bit-parallel random simulation hunts for a quick counterexample,
//  2. a SAT miter proves equivalence (bounded by a conflict budget, so the
//     caller can trade effort for certainty on very large designs).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "sat/solver.hpp"

namespace emorphic {

enum class CecStatus { kEquivalent, kNotEquivalent, kUndecided };

struct CecResult {
  CecStatus status = CecStatus::kUndecided;
  /// On kNotEquivalent: one distinguishing input assignment (per PI).
  std::vector<bool> counterexample;
  /// The SAT proof's counters (all zero when simulation decided).
  sat::SolverStats solver;
  double seconds = 0.0;
};

struct CecParams {
  unsigned sim_words = 16;            // 16*64 random patterns first
  std::uint64_t conflict_limit = 200000;  // 0 = prove unboundedly
  std::uint64_t seed = 0xc0ffee;
  /// Wall-clock budget for the SAT proof; 0 = unbounded. Arithmetic miters
  /// (multipliers!) can be genuinely hard, so large-design flows should
  /// bound the effort and accept kUndecided.
  double time_limit_s = 20.0;
};

/// Check functional equivalence of two AIGs with identical interfaces.
/// `stop`, when set, is polled with the time limit inside the SAT proof
/// (every sat::Solver::kStopPollConflicts conflicts); returning true ends
/// the proof with kUndecided. It is an argument, not a CecParams field,
/// because params are part of what the service fingerprints.
CecResult cec(const Aig& a, const Aig& b, const CecParams& params = {},
              const std::function<bool()>& stop = {});

const char* cec_status_name(CecStatus status);

}  // namespace emorphic
