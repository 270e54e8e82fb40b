#pragma once
// Deep structural validators for every core structure — the EM_CHECK_EXPENSIVE
// tier of the invariant subsystem (check/check.hpp, docs/correctness.md).
//
// Each validator walks the whole structure and returns an empty string when
// it is consistent, else a description of the *first* violation naming the
// offending node/class/gate — the same convention as EGraph::check_invariants
// and AigChoices::check, which they subsume. They are always compiled (the
// pipeline's paranoia mode calls them at stage boundaries in release builds);
// the EMORPHIC_CHECKS option only gates the internal call sites at
// merge/rebuild points.
//
// Seeded-corruption coverage for every validator lives in
// tests/check/test_validators.cpp, which plants defects through the
// check::CheckProbe seam (check/probe.hpp) and asserts each one is caught.

#include <cstdint>
#include <string>

namespace emorphic {

class Aig;
class AigChoices;
class CutManager;
class EGraph;
class MappedNetlist;

namespace check {

/// AIG structural invariants: exactly one constant node (variable 0), PI
/// back-indices consistent with pis(), AND fanins topologically ordered
/// (acyclicity) and in canonical strash order, no AND over a constant or a
/// single variable, no structurally duplicate ANDs, num_ands() consistent,
/// every PO literal over a live variable; then the strash table: every full
/// slot holds a distinct live AND, a lookup (Aig::find_and) of each AND's
/// fanins finds that AND, and the full-slot count equals num_ands().
std::string check_aig(const Aig& aig);

/// E-graph congruence/hash-consing invariants of a *clean* (rebuilt)
/// e-graph: union-find fully compressed, stored e-nodes canonical and
/// deduplicated, congruence closed (structurally identical e-nodes share a
/// class), and the hashcons in exact bijection with the live e-nodes — a
/// stale entry that resolves to no live node is reported, not just a
/// missing one. Wraps EGraph::check_invariants.
std::string check_egraph(const EGraph& egraph);

/// Choice-annotation invariants against its AIG: sizes match, rings
/// disjoint with consistent repr literals and phases, and the finalized
/// schedule a permutation that respects every fanin and ring edge. Wraps
/// AigChoices::check.
std::string check_choices(const Aig& aig, const AigChoices& choices);

/// Cut-set invariants for every node of an enumerated CutManager: leaves
/// sorted, deduplicated and in range, the trivial cut last, truth tables
/// confined to their 2^size minterms and *matching a simulation of the cone
/// they cover* (for a choice-class representative, the cone of the ring
/// member the cut was imported from, phase-adjusted), no exact-duplicate
/// cuts, and — for nodes without choice rings, where enumeration guarantees
/// it — no dominated cuts.
std::string check_cuts(const CutManager& cuts);

/// Mapped-netlist invariants, for cell and LUT netlists alike: nets in
/// range and driven exactly once (by a PI declaration, a constant tie, or
/// one gate), gate inputs defined before use (topological emission order),
/// truth tables confined to their inputs' minterms, and every PO driven by
/// a defined net. A cell gate's id must name a library cell and its input
/// count equal that cell's pin count; a LUT gate has 1 to kMaxCutSize
/// inputs.
std::string check_netlist(const MappedNetlist& netlist);

/// Evaluate a `size`-input truth table (size <= 6) on 64 input patterns at
/// once: bit p of the result is the table's value on the minterm whose
/// input i is bit p of leaf_words[i]. A Shannon mux over the leaf words,
/// 2^size - 1 word muxes; check_cuts compares it with a node's simulation.
std::uint64_t eval_table_word(std::uint64_t tt,
                              const std::uint64_t* leaf_words, unsigned size);

}  // namespace check
}  // namespace emorphic
