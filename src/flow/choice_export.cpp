#include "flow/choice_export.hpp"

#include <cassert>
#include <stdexcept>
#include <vector>

#include "egraph/choices.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace emorphic {

namespace {

/// Lower one e-node over already-built child literals. NOT and the leaves
/// lower to existing literals (no new structure); binary operators build.
Lit lower_node(Aig& aig, const ENode& n, const std::vector<Lit>& built,
               const EGraph& egraph, const std::vector<Var>& pis) {
  auto child = [&](unsigned k) { return built[egraph.find(n.children[k])]; };
  switch (n.op) {
    case Op::kConst0:
      return kLitFalse;
    case Op::kConst1:
      return kLitTrue;
    case Op::kVar:
      return make_lit(pis[n.symbol]);
    case Op::kNot:
      return lit_not(child(0));
    case Op::kAnd:
      return aig.make_and(child(0), child(1));
    case Op::kOr:
      return aig.make_or(child(0), child(1));
    case Op::kXor:
      return aig.make_xor(child(0), child(1));
  }
  return kLitFalse;
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
  const EGraph& egraph = ce.egraph;
  ChoiceExportStats local_stats;
  ChoiceExportStats& st = stats != nullptr ? *stats : local_stats;
  st = ChoiceExportStats{};

  // --- Phase 1: lower the chosen extraction (the representative cone) ------
  // Same traversal as extraction_to_aig, but the per-class literals and the
  // completion (topological) order of the classes are kept: phase 2 lowers
  // alternatives over exactly these literals, so every alternative cone
  // hangs off representatives — never off another alternative.
  Aig aig;
  for (const auto& name : ce.pi_names) aig.add_pi(name);

  const std::size_t slots = egraph.num_classes_created();
  std::vector<Lit> built(slots, kLitFalse);
  std::vector<std::uint8_t> done(slots, 0);
  std::vector<EClassId> class_order;

  std::vector<EClassId> stack;
  for (const SerializedRoot& r : ce.roots) stack.push_back(egraph.find(r.id));
  while (!stack.empty()) {
    EClassId c = egraph.find(stack.back());
    if (done[c]) {
      stack.pop_back();
      continue;
    }
    if (!solution.has(c)) {
      throw std::invalid_argument(
          "egraph_to_choice_aig: extraction does not cover the output cone");
    }
    const ENode& n = egraph.eclass(c).nodes[solution.choice(c)];
    bool pending = false;
    for (unsigned k = 0; k < n.arity(); ++k) {
      EClassId child = egraph.find(n.children[k]);
      if (!done[child]) {
        stack.push_back(child);
        pending = true;
      }
    }
    if (pending) continue;
    built[c] = lower_node(aig, n, built, egraph, aig.pis());
    done[c] = 1;
    class_order.push_back(c);
    stack.pop_back();
  }
  for (const SerializedRoot& r : ce.roots) {
    Lit lit = built[egraph.find(r.id)];
    aig.add_po(lit_notcond(lit, r.complemented), r.name);
  }
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
  for (EClassId c : class_order) {
    Var rep = lit_var(built[c]);
    if (aig.is_and(rep)) role_of(rep) = kRep;
  }

  std::vector<PendingAlt> pending_alts;
  for (EClassId c : class_order) {
    Lit rep_lit = built[c];
    Var rep = lit_var(rep_lit);
    if (!aig.is_and(rep)) continue;  // constant / PI classes have no choices
    for (std::uint32_t i :
         choice_candidates(egraph, c, solution.choice(c), params.ring_cap)) {
      const ENode& n = egraph.eclass(c).nodes[i];
      bool unbuildable = false;
      for (unsigned k = 0; k < n.arity(); ++k) {
        if (!done[egraph.find(n.children[k])]) unbuildable = true;
      }
      if (unbuildable) {
        // A member may reference classes the chosen cone never lowered;
        // materializing those cones could drag in an unbounded slice of
        // the e-graph, so such members are skipped.
        ++st.alts_unbuildable;
        continue;
      }
      Lit alt_lit = lower_node(aig, n, built, egraph, aig.pis());
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
