#include "opt/sop_balance.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "opt/sop.hpp"

namespace emorphic {

namespace {

struct NodeChoice {
  std::uint32_t cut_index = 0;
  double arrival = 0.0;
};

}  // namespace

Aig sop_balance(const Aig& aig, const SopBalanceParams& params) {
  CutParams cut_params;
  cut_params.cut_size = params.cut_size;
  cut_params.num_cuts = params.num_cuts;
  CutManager cuts(aig, cut_params);
  FactorMemo memo;

  // Delay-oriented cut selection under the unit LUT-delay model.
  std::vector<NodeChoice> choice(aig.num_nodes());
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) continue;
    double best_arrival = 0.0;
    std::uint32_t best_cut = 0;
    unsigned best_size = 0;
    bool found = false;
    const auto& node_cuts = cuts.cuts(v);
    for (std::uint32_t ci = 0; ci < node_cuts.size(); ++ci) {
      const Cut& cut = node_cuts[ci];
      if (cut.is_trivial(v)) continue;
      double arrival = 0.0;
      for (unsigned i = 0; i < cut.size; ++i) {
        arrival = std::max(arrival, choice[cut.leaves[i]].arrival);
      }
      arrival += 1.0;
      if (!found || arrival < best_arrival ||
          (arrival == best_arrival && cut.size < best_size)) {
        found = true;
        best_arrival = arrival;
        best_cut = ci;
        best_size = cut.size;
      }
    }
    assert(found && "every AND node has at least its fanin cut");
    choice[v] = {best_cut, best_arrival};
  }

  // Cover selection from the POs.
  std::vector<bool> required(aig.num_nodes(), false);
  std::vector<Var> stack;
  for (Lit po : aig.pos()) {
    Var v = lit_var(po);
    if (aig.is_and(v) && !required[v]) {
      required[v] = true;
      stack.push_back(v);
    }
  }
  while (!stack.empty()) {
    Var v = stack.back();
    stack.pop_back();
    const Cut& cut = cuts.cuts(v)[choice[v].cut_index];
    for (unsigned i = 0; i < cut.size; ++i) {
      Var leaf = cut.leaves[i];
      if (aig.is_and(leaf) && !required[leaf]) {
        required[leaf] = true;
        stack.push_back(leaf);
      }
    }
  }

  // Rebuild: each required LUT becomes a balanced factored SOP over its
  // leaves, with real arrival times (new-AIG levels) steering the pairing.
  Aig out = Aig::like(aig);
  std::vector<Lit> map(aig.num_nodes(), kLitFalse);
  std::vector<double> new_arrival(aig.num_nodes(), 0.0);
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    map[aig.pis()[i]] = make_lit(out.pis()[i]);
  }

  std::vector<std::uint32_t> out_levels;
  auto level_of = [&](Lit lit) -> double {
    // `out` only grows; recompute lazily when the cached vector is stale.
    if (lit_var(lit) >= out_levels.size()) {
      std::size_t old = out_levels.size();
      out_levels.resize(out.num_nodes(), 0);
      for (Var v = static_cast<Var>(old); v < out.num_nodes(); ++v) {
        if (out.is_and(v)) {
          out_levels[v] = 1 + std::max(out_levels[lit_var(out.fanin0(v))],
                                       out_levels[lit_var(out.fanin1(v))]);
        }
      }
    }
    return static_cast<double>(out_levels[lit_var(lit)]);
  };

  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v) || !required[v]) continue;
    const Cut& cut = cuts.cuts(v)[choice[v].cut_index];
    std::vector<Lit> leaves(cut.size);
    std::vector<double> arrivals(cut.size);
    for (unsigned i = 0; i < cut.size; ++i) {
      leaves[i] = map[cut.leaves[i]];
      arrivals[i] = level_of(leaves[i]);
    }
    map[v] =
        build_factored(out, memo.get(cut.tt, cut.size), leaves, arrivals);
    new_arrival[v] = level_of(map[v]);
  }

  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    Lit po = aig.po(i);
    out.set_po(i, lit_notcond(map[lit_var(po)], lit_is_compl(po)));
  }
  return out.cleanup();
}

}  // namespace emorphic
