#include "flow/choice_export.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>
#include <vector>

#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace emorphic {

namespace {

/// Flat indices of the members of dense class `d` to attempt as choice
/// alternatives, at most `cap`, excluding the chosen member `chosen`. Only
/// binary operators: NOT and the leaves lower to existing literals, so they
/// add no structure. The order is stable across e-graph rebuilds, which
/// keeps the export reproducible: operator index (AND before OR before XOR,
/// cheaper lowerings first), then the children's dense ids (ascending
/// canonical ids), then position in the class.
std::vector<std::uint32_t> choice_candidates(const ExtractView& view,
                                             std::uint32_t d,
                                             std::uint32_t chosen,
                                             std::uint32_t cap) {
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i = view.node_begin(d); i < view.node_begin(d + 1); ++i) {
    if (i != chosen && op_arity(view.node(i).op) == 2) candidates.push_back(i);
  }
  auto key = [&](std::uint32_t i) {
    const ExtractView::Node& v = view.node(i);
    return std::tuple(op_index(v.op), v.child[0], v.child[1], i);
  };
  std::sort(candidates.begin(), candidates.end(),
            [&](std::uint32_t a, std::uint32_t b) { return key(a) < key(b); });
  if (candidates.size() > cap) candidates.resize(cap);
  return candidates;
}

/// A tentative ring member awaiting verification.
struct PendingAlt {
  Var rep = 0;
  Var member = 0;
  bool phase = false;
};

}  // namespace

ChoiceAig egraph_to_choice_aig(const CircuitEGraph& ce,
                               const Extraction& solution,
                               const ChoiceExportParams& params,
                               ChoiceExportStats* stats) {
  return egraph_to_choice_aig(ce, ExtractView(ce.egraph), solution, params,
                              stats);
}

ChoiceAig egraph_to_choice_aig(const CircuitEGraph& ce,
                               const ExtractView& view,
                               const Extraction& solution,
                               const ChoiceExportParams& params,
                               ChoiceExportStats* stats) {
  ChoiceExportStats local_stats;
  ChoiceExportStats& st = stats != nullptr ? *stats : local_stats;
  st = ChoiceExportStats{};

  // --- Phase 1: lower the chosen extraction (the representative cone) ------
  // extraction_to_aig's lowering, keeping the per-class literals and the
  // completion (topological) order of the classes: phase 2 lowers
  // alternatives over exactly these literals, so every alternative cone
  // hangs off representatives — never off another alternative.
  ExtractScratch scratch;
  Aig aig;
  for (const auto& name : ce.pi_names) aig.add_pi(name);
  std::vector<std::uint32_t> class_order;
  lower_cone(view, solution, ce.roots, aig, scratch, &class_order);
  const std::vector<Lit>& built = scratch.lits;
  for (const SerializedRoot& r : ce.roots) {
    Lit lit = built[view.dense(r.id)];
    aig.add_po(lit_notcond(lit, r.complemented), r.name);
  }
  std::vector<std::uint8_t> lowered(view.num_classes(), 0);
  for (std::uint32_t d : class_order) lowered[d] = 1;
  st.cone_classes = class_order.size();

  // --- Phase 2: lower alternative members over the representatives ---------
  // Role bookkeeping keeps rings disjoint: a variable is a representative,
  // an alternative of exactly one representative, or plain. Two classes may
  // legitimately share a representative variable (a class and its NOT-image
  // lower to the same node in opposite phases); their members join the same
  // ring with the phase difference folded into the member literal.
  enum : std::uint8_t { kPlain = 0, kRep = 1, kAlt = 2 };
  std::vector<std::uint8_t> role(aig.num_nodes(), kPlain);
  auto role_of = [&](Var v) -> std::uint8_t& {
    if (v >= role.size()) role.resize(aig.num_nodes(), kPlain);
    return role[v];
  };
  for (std::uint32_t d : class_order) {
    Var rep = lit_var(built[d]);
    if (aig.is_and(rep)) role_of(rep) = kRep;
  }

  std::vector<PendingAlt> pending_alts;
  for (std::uint32_t d : class_order) {
    Lit rep_lit = built[d];
    Var rep = lit_var(rep_lit);
    if (!aig.is_and(rep)) continue;  // constant / PI classes have no choices
    const std::uint32_t chosen =
        view.node_begin(d) + solution.choice(view.slot(d));
    for (std::uint32_t i :
         choice_candidates(view, d, chosen, params.ring_cap)) {
      const ExtractView::Node& v = view.node(i);
      const bool unbuildable = !lowered[v.child[0]] || !lowered[v.child[1]];
      if (unbuildable) {
        // A member may reference classes the chosen cone never lowered;
        // materializing those cones could drag in an unbounded slice of
        // the e-graph, so such members are skipped.
        ++st.alts_unbuildable;
        continue;
      }
      Lit alt_lit = lower_enode(aig, v, built);
      Var alt = lit_var(alt_lit);
      if (alt == rep || !aig.is_and(alt)) {
        // Structural hashing recognized the member as the representative
        // itself (or it degenerated to a constant/PI): no new structure.
        ++st.alts_strashed;
        continue;
      }
      if (role_of(alt) != kPlain) {
        ++st.alts_conflicting;
        continue;
      }
      role_of(alt) = kAlt;
      pending_alts.push_back(PendingAlt{
          rep, alt,
          lit_is_compl(alt_lit) != lit_is_compl(rep_lit)});
    }
  }

  // --- Phase 3: SAT-verify every tentative member ---------------------------
  // One Tseitin encoding of the whole network (alternative cones included),
  // then fraig's two-query pair proof per member, on a warm incremental
  // solver.
  std::vector<PendingAlt> accepted;
  if (!pending_alts.empty()) {
    sat::Solver solver;
    std::vector<sat::SatVar> sat_map = sat::encode_aig(solver, aig);
    for (const PendingAlt& alt : pending_alts) {
      sat::PairVerdict verdict = sat::prove_pair(
          solver, sat::sat_lit(sat_map[alt.rep]),
          sat::sat_lit(sat_map[alt.member], alt.phase),
          params.verify_conflict_limit, st.verify_sat_calls);
      if (verdict == sat::PairVerdict::kEqual) {
        accepted.push_back(alt);
      } else {
        ++st.alts_rejected;
      }
    }
  }

  // --- Phase 4: compact ------------------------------------------------------
  // Rebuild keeping only the PO cones and the accepted alternative cones:
  // rejected members (and candidate scaffolding that strashed away) leave
  // no dead logic behind. The copy is injective on the kept nodes, so the
  // ring structure transfers one-to-one.
  std::vector<std::uint8_t> keep = aig.po_reachable();
  for (const PendingAlt& alt : accepted) aig.mark_cone(alt.member, keep);

  ChoiceAig result;
  std::vector<Lit> remap(aig.num_nodes(), kLitFalse);
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    remap[aig.pis()[i]] = make_lit(result.aig.add_pi(aig.pi_name(i)));
  }
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!keep[v] || !aig.is_and(v)) continue;
    Lit f0 = aig.fanin0(v);
    Lit f1 = aig.fanin1(v);
    remap[v] = result.aig.make_and(lit_notcond(remap[lit_var(f0)], lit_is_compl(f0)),
                                   lit_notcond(remap[lit_var(f1)], lit_is_compl(f1)));
  }
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    Lit po = aig.po(i);
    result.aig.add_po(lit_notcond(remap[lit_var(po)], lit_is_compl(po)),
                      aig.po_name(i));
  }

  result.choices = AigChoices(result.aig.num_nodes());
  std::size_t ring_members = 0;
  for (const PendingAlt& alt : accepted) {
    Lit rep_new = remap[alt.rep];
    Lit alt_new = remap[alt.member];
    assert(!lit_is_compl(rep_new) && !lit_is_compl(alt_new) &&
           "compaction must preserve node polarity");
    if (lit_var(rep_new) == lit_var(alt_new)) {
      ++st.alts_strashed;  // defensive: cannot happen on an injective copy
      continue;
    }
    result.choices.add_member(lit_var(rep_new), lit_var(alt_new), alt.phase);
    ++ring_members;
  }
  st.alts_dropped_cyclic = result.choices.finalize(result.aig);
  st.alts_kept = ring_members - st.alts_dropped_cyclic;
  st.classes_with_choices = result.choices.num_rings();
  assert(result.choices.check(result.aig).empty());
  return result;
}

namespace {

// The plain baseline maps the identical network through the identical
// kernel without the rings: the alternative cones are then invisible (no
// PO-reachable fanout, so they influence neither the reference estimate
// nor the cover), making this exactly the pre-choicemap mapping of the
// committed extraction. The baseline does pay cut enumeration over the
// dead alternative cones; stripping them first is not safe-by-index (an
// alternative may strash onto a base-cone intermediate), and this is the
// once-per-flow final mapping, not the SA hot path.
ChoiceMapOutcome pareto_gate(MappedNetlist choice, MappedNetlist plain) {
  MappedQor plain_qor{plain.area(), plain.delay()};
  MappedQor choice_qor{choice.area(), choice.delay()};
  const double eps = 1e-9;
  bool adopt = choice_qor.area <= plain_qor.area + eps &&
               choice_qor.delay <= plain_qor.delay + eps;
  return ChoiceMapOutcome{adopt ? std::move(choice) : std::move(plain),
                          plain_qor, choice_qor, adopt};
}

}  // namespace

ChoiceMapOutcome map_with_choices_gated(const ChoiceAig& caig,
                                        const Matcher& matcher,
                                        const MapperParams& params,
                                        MapperWorkspace* workspace) {
  MappedNetlist choice = map_to_cells(caig, matcher, params, workspace);
  MappedNetlist plain = map_to_cells(caig.aig, matcher, params, workspace);
  return pareto_gate(std::move(choice), std::move(plain));
}

ChoiceMapOutcome map_with_choices_gated(const ChoiceAig& caig,
                                        const LutMapperParams& params,
                                        MapperWorkspace* workspace) {
  MappedNetlist choice = map_to_luts(caig, params, workspace);
  MappedNetlist plain = map_to_luts(caig.aig, params, workspace);
  return pareto_gate(std::move(choice), std::move(plain));
}

}  // namespace emorphic
