#pragma once
// E-graph -> choice-annotated AIG export: the lossless-synthesis bridge
// between equality saturation and technology mapping.
//
// Extraction commits to ONE e-node per e-class; every other structural
// variant the saturation discovered would normally be thrown away before
// `map_to_cells` ever runs. This export keeps them: the chosen extraction
// is lowered by the extractor's own lower_cone (extract/extractor.hpp), so
// its nodes become the choice-class representatives that carry all
// fanout, and then, class by class, a capped number of the *other*
// binary-operator member e-nodes, in a rebuild-stable order, are lowered
// by lower_enode as alternatives over the same child representatives. Each
// alternative is complement-normalized against its representative —
// fraig-style, phase on the literal — and recorded in an AigChoices ring
// (aig/choice.hpp).
//
// Every ring member is then SAT-verified against its representative over
// one incremental CNF of the whole network (two assumption-only queries
// per member, the fraig pattern): a member the solver cannot prove
// equivalent — including an *inequivalent* member injected by an unsound
// e-graph merge — is rejected and its cone is dropped when the network is
// compacted. Mapping across choices therefore never has to trust the
// e-graph: the exported annotation is proven, and the stage-equivalence
// gate checks the mapped result end to end on top of that.

#include <cstddef>
#include <cstdint>

#include "aig/choice.hpp"
#include "extract/extractor.hpp"
#include "flow/conversion.hpp"
#include "mapper/lut_mapper.hpp"
#include "mapper/tech_mapper.hpp"

namespace emorphic {

/// Knobs of the e-graph -> choice-AIG export.
struct ChoiceExportParams {
  /// Maximum alternatives attempted per e-class (the choice ring cap).
  /// Larger rings expose more variants to the mapper at the price of more
  /// cut merging and more verification queries.
  std::uint32_t ring_cap = 4;
  /// Conflict budget per query of the SAT check every ring member passes
  /// against its representative before it may join the annotation; 0 =
  /// prove unboundedly. A member whose proof exceeds the budget is rejected
  /// (soundness over choice count).
  std::uint64_t verify_conflict_limit = 100000;
};

/// What one export did (diagnostics / bench reporting).
struct ChoiceExportStats {
  std::size_t cone_classes = 0;        // e-classes lowered from the e-graph
  std::size_t classes_with_choices = 0;  // representatives with >= 1 member
  std::size_t alts_kept = 0;           // members in the final annotation
  std::size_t alts_strashed = 0;       // lowered onto an existing identical node
  std::size_t alts_conflicting = 0;    // would overlap another ring/rep role
  std::size_t alts_unbuildable = 0;    // child class outside the lowered cone
  std::size_t alts_rejected = 0;       // SAT verification failed / over budget
  std::size_t alts_dropped_cyclic = 0; // scheduling dropped (mutual choice refs)
  std::size_t verify_sat_calls = 0;    // individual solver queries
};

/// Export `ce` under `solution` (which must cover the cone of the roots
/// acyclically, e.g. the SA winner or a greedy extraction; otherwise
/// std::invalid_argument) as a choice-annotated AIG.
/// The result's plain PO cones equal `egraph_to_aig(ce, solution)` up to
/// structural hashing; the rings carry the verified alternatives. The
/// returned annotation is finalized and check()-clean.
ChoiceAig egraph_to_choice_aig(const CircuitEGraph& ce,
                               const Extraction& solution,
                               const ChoiceExportParams& params = {},
                               ChoiceExportStats* stats = nullptr);
/// The same export over `view`, compiled from `ce.egraph` by the caller,
/// which may reuse it (the choicemap stage also lowers the plain cone).
ChoiceAig egraph_to_choice_aig(const CircuitEGraph& ce,
                               const ExtractView& view,
                               const Extraction& solution,
                               const ChoiceExportParams& params,
                               ChoiceExportStats* stats);

/// Result of one Pareto-gated choice-aware mapping (map_with_choices_gated),
/// for either backend.
struct ChoiceMapOutcome {
  /// The adopted cover: the choice-aware one, or the plain fallback.
  MappedNetlist netlist;
  /// QoR of the plain mapping of the representative cone alone.
  MappedQor plain;
  /// QoR of the raw choice-aware mapping across all ring variants.
  MappedQor choice;
  /// True when the choice-aware cover was adopted.
  bool adopted_choice = false;
};

/// Map `caig` across its choice rings AND map its representative cone
/// plainly, then adopt the choice-aware cover only when it is no worse in
/// BOTH area() and delay() (a Pareto gate, 1e-9 tolerance — exact for the
/// LUT backend's integer costs). Mapping is delay-first, so extra choices
/// can tighten the delay target at an area price; the gate makes the
/// choice-aware stages monotone — choices can only help, never hurt — the
/// same role gating plays for the resynthesis rounds. Both runs share the
/// mapper, workspace, reference estimates and tie-breaking, so the
/// comparison isolates the rings themselves.
ChoiceMapOutcome map_with_choices_gated(const ChoiceAig& caig,
                                        const Matcher& matcher,
                                        const MapperParams& params = {},
                                        MapperWorkspace* workspace = nullptr);

/// The same gate over the k-LUT backend (LUT count and LUT depth).
ChoiceMapOutcome map_with_choices_gated(const ChoiceAig& caig,
                                        const LutMapperParams& params,
                                        MapperWorkspace* workspace = nullptr);

}  // namespace emorphic
