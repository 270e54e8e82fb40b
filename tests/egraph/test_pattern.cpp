#include "egraph/pattern.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace emorphic {
namespace {

TEST(Pattern, CompileNumbersVariables) {
  Rewrite rw = Rewrite::make("t", Pat::and_(Pat::v("a"), Pat::v("b")),
                             Pat::and_(Pat::v("b"), Pat::v("a")));
  EXPECT_EQ(rw.var_names.size(), 2u);
  EXPECT_EQ(rw.lhs.num_vars(), 2u);
  EXPECT_EQ(rw.rhs.num_vars(), 2u);
}

TEST(Pattern, ToString) {
  std::vector<std::string> names;
  Pattern p = Pattern::compile(
      Pat::or_(Pat::not_(Pat::v("x")), Pat::and_(Pat::v("x"), Pat::v("y"))),
      names);
  EXPECT_EQ(p.to_string(names), "(!x | (x & y))");
}

TEST(Pattern, SimpleMatch) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId f = eg.add_and(a, b);

  std::vector<std::string> names;
  Pattern p = Pattern::compile(Pat::and_(Pat::v("x"), Pat::v("y")), names);
  std::vector<Subst> matches;
  match_in_class(eg, p, f, matches, 100);
  // Commutative matching yields both orders.
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_TRUE((matches[0][0] == eg.find(a) && matches[0][1] == eg.find(b)) ||
              (matches[0][0] == eg.find(b) && matches[0][1] == eg.find(a)));
}

TEST(Pattern, NonlinearPatternRequiresSameClass) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId aa = eg.add_and(a, a);
  EClassId ab = eg.add_and(a, b);

  std::vector<std::string> names;
  Pattern p = Pattern::compile(Pat::and_(Pat::v("x"), Pat::v("x")), names);
  std::vector<Subst> matches;
  match_in_class(eg, p, aa, matches, 100);
  // Children are the same class, so the two orders coincide: one match.
  EXPECT_EQ(matches.size(), 1u);
  matches.clear();
  match_in_class(eg, p, ab, matches, 100);
  EXPECT_TRUE(matches.empty());
}

TEST(Pattern, NestedMatch) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId c = eg.add_var(2);
  EClassId bc = eg.add_or(b, c);
  EClassId f = eg.add_and(a, bc);

  std::vector<std::string> names;
  Pattern p = Pattern::compile(
      Pat::and_(Pat::v("x"), Pat::or_(Pat::v("y"), Pat::v("z"))), names);
  std::vector<Subst> matches;
  match_in_class(eg, p, f, matches, 100);
  ASSERT_FALSE(matches.empty());
  bool found = false;
  for (const Subst& s : matches) {
    if (s[names.size() - 3] == eg.find(a)) found = true;  // x bound to a
  }
  EXPECT_TRUE(found);
}

TEST(Pattern, MatchAcrossMergedClasses) {
  // After a merge, patterns see every equivalent form in the class.
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId andnode = eg.add_and(a, b);
  EClassId c = eg.add_var(2);
  eg.merge(andnode, c);  // c is equivalent to a&b
  eg.rebuild();

  std::vector<std::string> names;
  Pattern p = Pattern::compile(Pat::and_(Pat::v("x"), Pat::v("y")), names);
  std::vector<Subst> matches;
  match_in_class(eg, p, eg.find(c), matches, 100);
  EXPECT_FALSE(matches.empty());
}

TEST(Pattern, ConstPatternsMatchOnlyConsts) {
  EGraph eg;
  EClassId zero = eg.add_const0();
  EClassId a = eg.add_var(0);
  EClassId f = eg.add_and(a, zero);

  std::vector<std::string> names;
  Pattern p = Pattern::compile(Pat::and_(Pat::v("x"), Pat::c0()), names);
  std::vector<Subst> matches;
  match_in_class(eg, p, f, matches, 100);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0][0], eg.find(a));
  matches.clear();
  EClassId g = eg.add_and(a, eg.add_var(1));
  match_in_class(eg, p, g, matches, 100);
  EXPECT_TRUE(matches.empty());
}

TEST(Pattern, MatchLimitRespected) {
  EGraph eg;
  // Build a class with many AND forms by merging.
  EClassId root = eg.add_var(0);
  for (std::uint32_t i = 1; i < 10; ++i) {
    EClassId x = eg.add_var(i);
    EClassId y = eg.add_var(i + 100);
    eg.merge(root, eg.add_and(x, y));
  }
  eg.rebuild();
  std::vector<std::string> names;
  Pattern p = Pattern::compile(Pat::and_(Pat::v("x"), Pat::v("y")), names);
  std::vector<Subst> all;
  match_in_class(eg, p, eg.find(root), all, 1000);
  ASSERT_EQ(all.size(), 18u);  // nine AND forms, both child orders
  // A capped search emits exactly the uncapped list's prefix.
  for (std::size_t limit : {1u, 5u, 17u, 18u, 19u}) {
    std::vector<Subst> matches;
    match_in_class(eg, p, eg.find(root), matches, limit);
    std::size_t expect = std::min(limit, all.size());
    EXPECT_EQ(matches, std::vector<Subst>(all.begin(), all.begin() + expect))
        << limit;
  }
}

TEST(Pattern, InstantiateBuildsRhs) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  Rewrite rw = Rewrite::make("demorgan", Pat::not_(Pat::and_(Pat::v("a"), Pat::v("b"))),
                             Pat::or_(Pat::not_(Pat::v("a")), Pat::not_(Pat::v("b"))));
  Subst s(rw.var_names.size());
  s[0] = a;
  s[1] = b;
  EClassId rhs = instantiate(eg, rw.rhs, s);
  // rhs must be OR(NOT a, NOT b)
  EClassId expect = eg.add_or(eg.add_not(a), eg.add_not(b));
  EXPECT_EQ(eg.find(rhs), eg.find(expect));
}

}  // namespace
}  // namespace emorphic
