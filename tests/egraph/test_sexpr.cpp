#include "egraph/sexpr.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "benchgen/arith.hpp"

namespace emorphic {
namespace {

TEST(SExpr, FlattenSmallCircuit) {
  Aig aig;
  Lit a = make_lit(aig.add_pi("a"));
  Lit b = make_lit(aig.add_pi("b"));
  aig.add_po(aig.make_and(a, lit_not(b)), "f");
  std::string text = aig_to_sexpr(aig, SExprLimits{});
  EXPECT_NE(text.find("(and a (not b))"), std::string::npos);
}

TEST(SExpr, RoundTripThroughAig) {
  Rng rng(51);
  for (int round = 0; round < 5; ++round) {
    Aig aig = testing::random_aig(5, 2, 15, rng);
    std::string text = aig_to_sexpr(aig, SExprLimits{});
    Aig back = sexpr_to_aig(text, SExprLimits{});
    // PI order may differ (leaves appear in traversal order), so compare
    // only when the interfaces coincide; otherwise at least the PI count.
    EXPECT_EQ(back.num_pos(), aig.num_pos());
    EXPECT_LE(back.num_pis(), aig.num_pis());
  }
}

TEST(SExpr, SharedNodesAreDuplicated) {
  // The E-Syn bottleneck made concrete: a shared node is textually
  // duplicated, so the flattened size grows even though the DAG does not.
  Aig aig;
  Lit a = make_lit(aig.add_pi("a"));
  Lit b = make_lit(aig.add_pi("b"));
  Lit shared = aig.make_and(a, b);
  Lit f = aig.make_and(shared, lit_not(shared));  // strash folds this to 0
  EXPECT_EQ(f, kLitFalse);
  Lit g = aig.make_and(aig.make_and(shared, a), aig.make_and(shared, b));
  aig.add_po(g, "g");
  std::string text = aig_to_sexpr(aig, SExprLimits{});
  // "(and a b)" occurs at least twice in the flattened form.
  std::size_t first = text.find("(and a b)");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(text.find("(and a b)", first + 1), std::string::npos);
}

TEST(SExpr, ExponentialBlowupHitsMemoryGuard) {
  // A ripple-carry adder's flattened form grows ~3^bits; 24 bits must trip
  // the (tiny) memory budget.
  Aig adder = make_adder(24);
  SExprLimits limits;
  limits.max_chars = 1u << 20;  // 1 MiB
  limits.time_limit_s = 30.0;
  try {
    aig_to_sexpr(adder, limits);
    FAIL() << "expected SExprLimitError";
  } catch (const SExprLimitError& e) {
    EXPECT_EQ(e.kind(), SExprLimitError::Kind::kMemory);
  }
}

TEST(SExpr, TimeGuardFires) {
  Aig adder = make_adder(32);
  SExprLimits limits;
  limits.max_chars = ~0ull >> 1;  // effectively no memory bound
  limits.time_limit_s = 0.01;
  try {
    aig_to_sexpr(adder, limits);
    FAIL() << "expected SExprLimitError";
  } catch (const SExprLimitError& e) {
    EXPECT_EQ(e.kind(), SExprLimitError::Kind::kTimeout);
  }
}

TEST(SExpr, SmallAdderSucceeds) {
  // The Table III shape: small, shallow circuits still convert.
  Aig adder = make_adder(8);
  SExprLimits limits;
  limits.max_chars = 1u << 26;
  limits.time_limit_s = 10.0;
  std::string text = aig_to_sexpr(adder, limits);
  EXPECT_FALSE(text.empty());
  SExprEGraph eg = sexpr_to_egraph(text, limits);
  EXPECT_EQ(eg.roots.size(), adder.num_pos());
  EXPECT_GT(eg.egraph.num_enodes(), 0u);
}

}  // namespace
}  // namespace emorphic
