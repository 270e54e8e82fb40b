#include "sat/cnf.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace emorphic::sat {

namespace {

std::vector<SatVar> encode_with_pis(Solver& solver, const Aig& aig,
                                    const std::vector<SatVar>& pi_vars) {
  std::vector<SatVar> map(aig.num_nodes());
  map[0] = solver.new_vars();
  solver.add_unit(sat_lit(map[0], true));  // constant node is 0

  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (aig.is_pi(v)) {
      map[v] = pi_vars[aig.pi_index(v)];
      continue;
    }
    SatVar out = solver.new_vars();
    map[v] = out;
    SatLit y = sat_lit(out);
    SatLit a = lit_to_sat(map, aig.fanin0(v));
    SatLit b = lit_to_sat(map, aig.fanin1(v));
    // y <-> a & b
    solver.add_binary(sat_neg(y), a);
    solver.add_binary(sat_neg(y), b);
    solver.add_ternary(y, sat_neg(a), sat_neg(b));
  }
  return map;
}

}  // namespace

std::vector<SatVar> encode_aig(Solver& solver, const Aig& aig) {
  std::vector<SatVar> pi_vars(aig.num_pis());
  for (auto& v : pi_vars) v = solver.new_vars();
  return encode_with_pis(solver, aig, pi_vars);
}

SatLit encode_miter(Solver& solver, const Aig& a, const Aig& b) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    throw std::invalid_argument("miter: interface mismatch");
  }
  std::vector<SatVar> pi_vars(a.num_pis());
  for (auto& v : pi_vars) v = solver.new_vars();
  auto map_a = encode_with_pis(solver, a, pi_vars);
  auto map_b = encode_with_pis(solver, b, pi_vars);

  // xor_i = po_a_i ^ po_b_i ; miter = OR(xor_i)
  std::vector<SatLit> xors;
  xors.reserve(a.num_pos());
  for (std::uint32_t i = 0; i < a.num_pos(); ++i) {
    SatLit pa = lit_to_sat(map_a, a.po(i));
    SatLit pb = lit_to_sat(map_b, b.po(i));
    SatLit x = sat_lit(solver.new_vars());
    // x <-> pa ^ pb
    solver.add_ternary(sat_neg(x), pa, pb);
    solver.add_ternary(sat_neg(x), sat_neg(pa), sat_neg(pb));
    solver.add_ternary(x, sat_neg(pa), pb);
    solver.add_ternary(x, pa, sat_neg(pb));
    xors.push_back(x);
  }
  SatLit miter = sat_lit(solver.new_vars());
  // miter -> OR(xors); and each xor -> miter.
  std::vector<SatLit> clause{sat_neg(miter)};
  for (SatLit x : xors) {
    clause.push_back(x);
    solver.add_binary(sat_neg(x), miter);
  }
  solver.add_clause(std::move(clause));
  return miter;
}

PairVerdict prove_pair(Solver& solver, SatLit a, SatLit b,
                       std::uint64_t conflict_limit, std::size_t& queries) {
  for (const auto& [x, y] : {std::pair{a, sat_neg(b)}, {sat_neg(a), b}}) {
    ++queries;
    SatResult r = solver.solve({x, y}, conflict_limit);
    if (r == SatResult::kSat) return PairVerdict::kDifferent;
    if (r == SatResult::kUndecided) return PairVerdict::kUndecided;
  }
  return PairVerdict::kEqual;
}

}  // namespace emorphic::sat
