#include "cec/cec.hpp"

#include "aig/sim.hpp"
#include "sat/cnf.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace emorphic {

const char* cec_status_name(CecStatus status) {
  switch (status) {
    case CecStatus::kEquivalent:
      return "equivalent";
    case CecStatus::kNotEquivalent:
      return "NOT-equivalent";
    case CecStatus::kUndecided:
      return "undecided";
  }
  return "?";
}

CecResult cec(const Aig& a, const Aig& b, const CecParams& params,
              const std::function<bool()>& stop) {
  CecResult result;
  Timer timer;
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    result.status = CecStatus::kNotEquivalent;
    result.seconds = timer.seconds();
    return result;
  }

  // Phase 1: random simulation. Finding any differing word refutes
  // equivalence; extract a concrete counterexample bit.
  Rng rng(params.seed);
  std::vector<std::uint64_t> pi_words(a.num_pis());
  for (unsigned w = 0; w < params.sim_words; ++w) {
    for (auto& word : pi_words) word = rng.next();
    auto va = simulate_words(a, pi_words);
    auto vb = simulate_words(b, pi_words);
    for (std::uint32_t i = 0; i < a.num_pos(); ++i) {
      std::uint64_t wa =
          va[lit_var(a.po(i))] ^ (lit_is_compl(a.po(i)) ? ~0ull : 0ull);
      std::uint64_t wb =
          vb[lit_var(b.po(i))] ^ (lit_is_compl(b.po(i)) ? ~0ull : 0ull);
      std::uint64_t diff = wa ^ wb;
      if (diff != 0) {
        unsigned bit = 0;
        while (((diff >> bit) & 1ull) == 0) ++bit;
        result.status = CecStatus::kNotEquivalent;
        result.counterexample.resize(a.num_pis());
        for (std::uint32_t k = 0; k < a.num_pis(); ++k) {
          result.counterexample[k] = ((pi_words[k] >> bit) & 1ull) != 0;
        }
        result.seconds = timer.seconds();
        return result;
      }
    }
  }

  // Phase 2: SAT proof on the miter.
  sat::Solver solver;
  sat::SatLit miter = sat::encode_miter(solver, a, b);
  solver.add_unit(miter);
  sat::SatResult sat_result =
      solver.solve({}, params.conflict_limit, params.time_limit_s, stop);
  result.solver = solver.stats();
  switch (sat_result) {
    case sat::SatResult::kUnsat:
      result.status = CecStatus::kEquivalent;
      break;
    case sat::SatResult::kSat: {
      result.status = CecStatus::kNotEquivalent;
      result.counterexample.resize(a.num_pis());
      // PI variables are the first ones created by encode_miter.
      for (std::uint32_t k = 0; k < a.num_pis(); ++k) {
        result.counterexample[k] = solver.model_value(k);
      }
      break;
    }
    case sat::SatResult::kUndecided:
      result.status = CecStatus::kUndecided;
      break;
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace emorphic
