// The incremental-assumptions contract behind fraig and cec: one solver,
// one CNF, many assumption-only queries. The key guarantee under test is
// that a kUnsat caused by assumptions never poisons the solver — dropping
// the offending assumption makes the instance solvable again — plus the
// Tseitin/miter edge cases the sweeping engine leans on.

#include <gtest/gtest.h>

#include <algorithm>

#include "aig/aig.hpp"
#include "benchgen/epfl.hpp"
#include "opt/resyn.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace emorphic::sat {
namespace {

TEST(SatIncremental, UnsatUnderAssumptionThenSatAfterDroppingIt) {
  // (!a | !b | c) (!a | !b | !c): contradictory only under {a, b}. The
  // conflict is discovered by propagation at assumption decision levels —
  // the exact path that used to flag the whole database unsat.
  Solver s;
  SatVar a = s.new_vars(3);
  SatLit la = sat_lit(a), lb = sat_lit(a + 1), lc = sat_lit(a + 2);
  s.add_ternary(sat_neg(la), sat_neg(lb), lc);
  s.add_ternary(sat_neg(la), sat_neg(lb), sat_neg(lc));

  EXPECT_EQ(s.solve({la, lb}), SatResult::kUnsat);
  EXPECT_TRUE(s.ok()) << "assumption-only kUnsat must not poison the solver";

  // Dropping either assumption makes the instance satisfiable again.
  EXPECT_EQ(s.solve({la}), SatResult::kSat);
  EXPECT_EQ(s.solve({lb}), SatResult::kSat);
  EXPECT_EQ(s.solve(), SatResult::kSat);
  // And the original query still fails, reproducibly.
  EXPECT_EQ(s.solve({la, lb}), SatResult::kUnsat);
  EXPECT_TRUE(s.ok());
}

TEST(SatIncremental, FailedAssumptionsNameTheCulprits) {
  Solver s;
  SatVar a = s.new_vars(4);
  SatLit la = sat_lit(a), lb = sat_lit(a + 1), lc = sat_lit(a + 2);
  SatLit unrelated = sat_lit(a + 3);
  s.add_ternary(sat_neg(la), sat_neg(lb), lc);
  s.add_ternary(sat_neg(la), sat_neg(lb), sat_neg(lc));

  ASSERT_EQ(s.solve({unrelated, la, lb}), SatResult::kUnsat);
  const std::vector<SatLit>& failed = s.failed_assumptions();
  auto contains = [&](SatLit l) {
    return std::find(failed.begin(), failed.end(), l) != failed.end();
  };
  EXPECT_TRUE(contains(la));
  EXPECT_TRUE(contains(lb));
  EXPECT_FALSE(contains(unrelated));

  // After a SAT query the failed set is cleared.
  ASSERT_EQ(s.solve({unrelated}), SatResult::kSat);
  EXPECT_TRUE(s.failed_assumptions().empty());
}

TEST(SatIncremental, ContradictoryAssumptionsDoNotStick) {
  Solver s;
  SatVar a = s.new_vars();
  EXPECT_EQ(s.solve({sat_lit(a), sat_lit(a, true)}), SatResult::kUnsat);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.solve(), SatResult::kSat);
}

TEST(SatIncremental, PermanentUnsatIsReportedByOk) {
  Solver s;
  SatVar a = s.new_vars();
  s.add_unit(sat_lit(a));
  s.add_unit(sat_lit(a, true));
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.failed_assumptions().empty());
}

TEST(SatIncremental, SolverReuseAcrossEquivalenceQueries) {
  // The fraig pattern: encode one AIG, then prove/refute many candidate
  // pairs with assumption-only queries on the same solver.
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit x = aig.make_or(a, b);
  Lit y = aig.make_and(x, a);      // (a|b) & a == a
  Lit z = aig.make_xor(a, b);      // != a
  aig.add_po(y);
  aig.add_po(z);

  Solver s;
  std::vector<SatVar> map = encode_aig(s, aig);
  auto equal = [&](Lit l1, Lit l2) {
    SatLit s1 = lit_to_sat(map, l1);
    SatLit s2 = lit_to_sat(map, l2);
    return s.solve({s1, sat_neg(s2)}) == SatResult::kUnsat &&
           s.solve({sat_neg(s1), s2}) == SatResult::kUnsat;
  };
  EXPECT_TRUE(equal(y, a));
  EXPECT_FALSE(equal(z, a));
  EXPECT_FALSE(equal(z, y));
  // Interleaved re-checks still agree (learnt clauses carried over).
  EXPECT_TRUE(equal(y, a));
  EXPECT_TRUE(s.ok());

  // Clauses may be added between queries: force z's XOR inputs apart.
  s.add_unit(lit_to_sat(map, a));
  s.add_unit(sat_neg(lit_to_sat(map, b)));
  EXPECT_EQ(s.solve(), SatResult::kSat);
  EXPECT_TRUE(s.model_value(map[lit_var(z)]) !=
              static_cast<bool>(lit_is_compl(z)));
}

TEST(SatIncremental, UnitAfterUndecidedSolveIsAddedAtLevelZero) {
  // A budget-limited solve returns mid-search, with decisions on the trail
  // and its last learnt literal not yet propagated. A unit clause added
  // then must land at level 0: propagated mid-search, a conflict there was
  // taken for a contradiction of the database (a satisfiable instance
  // answered kUnsat from then on), and the unit itself was undone by the
  // next solve's backtrack.
  Aig sqrt = make_epfl("sqrt");
  Solver s;
  SatLit miter = encode_miter(s, sqrt, dch_substitute(sqrt));
  ASSERT_EQ(s.solve({miter}, 3000), SatResult::kUndecided);
  SatVar fresh = s.new_vars();
  s.add_unit(sat_lit(fresh));
  EXPECT_TRUE(s.ok());
  // Without the assumption the miter output is free: satisfiable.
  ASSERT_EQ(s.solve(), SatResult::kSat);
  EXPECT_TRUE(s.model_value(fresh));
}

// --- Tseitin / miter edge cases ---------------------------------------------

TEST(SatIncremental, ConstantNodeEncoding) {
  // The constant node is a forced-0 variable; both constant PO polarities
  // must behave under assumptions.
  Aig aig;
  aig.add_pi();
  aig.add_po(kLitTrue);
  aig.add_po(kLitFalse);
  Solver s;
  std::vector<SatVar> map = encode_aig(s, aig);
  EXPECT_EQ(s.solve({lit_to_sat(map, kLitTrue)}), SatResult::kSat);
  EXPECT_EQ(s.solve({lit_to_sat(map, kLitFalse)}), SatResult::kUnsat);
  EXPECT_TRUE(s.ok());
}

TEST(SatIncremental, MiterOfConstantCircuitsAndInvertedOutputs) {
  // Zero-PI constant circuits: equal and complemented variants.
  Aig c1;
  c1.add_po(kLitTrue);
  Aig c2;
  c2.add_po(kLitTrue);
  Aig c3;
  c3.add_po(kLitFalse);
  {
    Solver s;
    s.add_unit(encode_miter(s, c1, c2));
    EXPECT_EQ(s.solve(), SatResult::kUnsat);
  }
  {
    Solver s;
    s.add_unit(encode_miter(s, c1, c3));
    EXPECT_EQ(s.solve(), SatResult::kSat);
  }
}

TEST(SatIncremental, MiterCatchesSingleInvertedOutput) {
  // Identical structure except one complemented PO among several — the
  // phase bug fraig's merge step must never introduce.
  auto build = [](bool invert_last) {
    Aig aig;
    Lit a = make_lit(aig.add_pi());
    Lit b = make_lit(aig.add_pi());
    aig.add_po(aig.make_and(a, b));
    Lit last = aig.make_or(a, b);
    aig.add_po(invert_last ? lit_not(last) : last);
    return aig;
  };
  Aig plain = build(false);
  Aig inverted = build(true);
  Solver s;
  s.add_unit(encode_miter(s, plain, inverted));
  ASSERT_EQ(s.solve(), SatResult::kSat);
  Solver s2;
  s2.add_unit(encode_miter(s2, plain, plain));
  EXPECT_EQ(s2.solve(), SatResult::kUnsat);
}

TEST(SatIncremental, SharedFaninLiteralsEncodeOnce) {
  // One node feeding many fanouts in both polarities: (a&b), !(a&b)&c —
  // the encoding maps the shared variable once and the complement rides on
  // the literal.
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit c = make_lit(aig.add_pi());
  Lit ab = aig.make_and(a, b);
  Lit other = aig.make_and(lit_not(ab), c);
  aig.add_po(ab);
  aig.add_po(other);
  Solver s;
  std::vector<SatVar> map = encode_aig(s, aig);
  // The two POs are mutually exclusive: both true must be UNSAT.
  EXPECT_EQ(s.solve({lit_to_sat(map, ab), lit_to_sat(map, other)}),
            SatResult::kUnsat);
  EXPECT_EQ(s.solve({lit_to_sat(map, ab)}), SatResult::kSat);
  EXPECT_EQ(s.solve({lit_to_sat(map, other)}), SatResult::kSat);
}

}  // namespace
}  // namespace emorphic::sat
