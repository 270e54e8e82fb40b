#pragma once
// Per-class choice export: which member e-nodes of an e-class are worth
// materializing as *alternative structures* next to the one an extraction
// committed to, and in what order.
//
// After a few saturation iterations an e-class typically holds several
// e-nodes — the AND form, the De-Morgan OR form, re-associated variants,
// an XOR recognition… Extraction keeps exactly one; everything else is the
// structural diversity the paper credits equality saturation for
// (Sec. I, insight 1). The choice export (flow/choice_export.hpp) lowers a
// capped, deterministically ordered subset of those extra members into a
// choice-annotated AIG (aig/choice.hpp) so technology mapping can select
// matches across all variants instead of the single extracted structure.
//
// Only binary operators are candidates: kNot lowers to a complemented edge
// and kVar/kConst to existing literals, so they contribute no alternative
// structure. The order is stable under e-graph rebuilds (operator index,
// then canonical child ids), which keeps the exported choice AIG — and
// therefore mapping results — reproducible run to run.

#include <cstdint>
#include <vector>

#include "egraph/egraph.hpp"

namespace emorphic {

/// Indices (into `egraph.eclass(cls).nodes`) of the member e-nodes of `cls`
/// to attempt as choice alternatives, excluding `chosen_index` (the member
/// the extraction selected), in deterministic order, at most `cap` entries.
/// Binary-operator members only; `cls` may be any id (it is canonicalized).
std::vector<std::uint32_t> choice_candidates(const EGraph& egraph,
                                             EClassId cls,
                                             std::uint32_t chosen_index,
                                             std::uint32_t cap);

}  // namespace emorphic
