// The same-trajectory gate for the CDCL kernel: every counter of a few
// benchgen miter solves and of an incremental prove_pair sequence, pinned
// exactly. Decisions, propagations, conflicts, restarts and learned
// clauses are machine-independent, so a kernel rewrite that changes any
// decision, any watch order or any learnt clause changes at least one of
// them. The constants were derived on the kernel with a separate clause
// header table (before headers moved inline into the literal arena).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "benchgen/doubling.hpp"
#include "benchgen/epfl.hpp"
#include "opt/resyn.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "util/checkpoint.hpp"  // fingerprint_fold

namespace emorphic::sat {
namespace {

struct Expected {
  SatResult result;
  std::uint64_t decisions, propagations, conflicts, restarts, learned;
};

void expect_counters(const Solver& s, SatResult r, const Expected& want) {
  const SolverStats& st = s.stats();
  EXPECT_EQ(r, want.result);
  EXPECT_EQ(st.decisions, want.decisions);
  EXPECT_EQ(st.propagations, want.propagations);
  EXPECT_EQ(st.conflicts, want.conflicts);
  EXPECT_EQ(st.restarts, want.restarts);
  EXPECT_EQ(st.learned, want.learned);
}

TEST(Sat, GoldenSolverCounters) {
  {
    // Proved outright: the miter output is asserted as a unit clause.
    Solver s;
    Aig arbiter = make_epfl("arbiter");
    s.add_unit(encode_miter(s, arbiter, dch_substitute(arbiter)));
    SatResult r = s.solve({}, 20000);
    expect_counters(s, r, {SatResult::kUnsat, 4078, 386209, 1635, 14, 1630});
  }
  {
    // Incremental, across two miters in one solver. The arbiter miter is
    // proved under an assumption; a clause added after its learnt clauses
    // then becomes a level-0 reason. The sqrt miter's budget-limited query
    // passes 8,000 live learnt clauses, so a restart reduces the learnt
    // database: the arena is compacted past deleted clauses in front of
    // that reason, which must move with its clause.
    Solver s;
    Aig arbiter = make_epfl("arbiter");
    SatLit m = encode_miter(s, arbiter, dch_substitute(arbiter));
    SatResult r = s.solve({m});
    expect_counters(s, r, {SatResult::kUnsat, 3365, 319962, 1315, 13, 1311});
    EXPECT_EQ(s.failed_assumptions(), std::vector<SatLit>{m});
    const SatVar u = s.new_vars(2);
    s.add_binary(sat_lit(u, true), sat_lit(u + 1));
    s.add_unit(sat_lit(u));
    Aig sqrt = make_epfl("sqrt");
    r = s.solve({encode_miter(s, sqrt, dch_substitute(sqrt))}, 12000);
    expect_counters(s, r, {SatResult::kUndecided, 22647, 2844929, 13315, 75, 13307});
  }
  {
    // Incremental: one encoded AIG, two assumption-only queries per pair
    // (sat::prove_pair), equal pairs (each PO against its restructured
    // twin) interleaved with distinct ones (against the next PO's twin).
    Aig aig = doubled(make_epfl("sqrt"));
    Solver s;
    std::vector<SatVar> map = encode_aig(s, aig);
    const std::uint32_t half = aig.num_pos() / 2;
    std::uint64_t h = 0;
    std::size_t queries = 0;
    for (std::uint32_t i = 0; i < half; ++i) {
      for (std::uint32_t j : {i, (i + 1) % half}) {
        PairVerdict v =
            prove_pair(s, lit_to_sat(map, aig.po(i)),
                       lit_to_sat(map, aig.po(half + j)), 2000, queries);
        h = fingerprint_fold(h, static_cast<std::uint64_t>(v));
        if (v == PairVerdict::kDifferent) {
          for (SatVar x = 0; x < s.num_vars(); ++x) {
            h = fingerprint_fold(h, s.model_value(x) ? 1 : 0);
          }
        }
        for (SatLit l : s.failed_assumptions()) h = fingerprint_fold(h, l);
        const SolverStats& st = s.stats();
        for (std::uint64_t c : {st.decisions, st.propagations, st.conflicts,
                                st.restarts, st.learned}) {
          h = fingerprint_fold(h, c);
        }
      }
    }
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(queries, 78u);
    EXPECT_EQ(h, 0xedf0adb40085e43full) << std::hex << h;
  }
}

}  // namespace
}  // namespace emorphic::sat
