#pragma once
// Truth-table-driven k-LUT technology mapping — the FPGA backend next to
// the standard-cell mapper (tech_mapper.hpp).
//
// A k-input LUT implements *any* function of up to k inputs, so no cell
// library and no Boolean matching are involved: each priority cut IS a
// match, its truth table (computed during enumeration, complemented AIG
// edges already absorbed) IS the LUT configuration. That removes the
// kMaxCellPins = 4 matching bound — LUT covers run at the full enumeration
// width kMaxCutSize = 6, the `if -K 6` setting of the paper's baseline.
//
// The cover is a MappedNetlist without a cell library (mapper/netlist.hpp),
// and the selection is the cell mapper's covering DP (mapper/cover_dp.hpp)
// with the LUT as its match provider: one identity match per cut at unit
// area and unit delay, so pass 1 is depth-optimal (LUT levels, area flow
// breaking ties) and pass 2 recovers area under per-node required depths.
// A LUT absorbs input and output polarity into its table, so every match
// produces the positive polarity; a complemented primary output duplicates
// its root LUT with the negated table (or adds a 1-input inverter LUT when
// the root is a primary input). The MapperWorkspace of the cell mapper
// serves this backend too.
//
// The ChoiceAig overload maps choice-aware, exactly like the cell
// mapper's: cut enumeration merges every ring member's cuts into its
// representative (aig/cut.hpp) and the DP then picks the best cut across
// all structural variants. On a ring-free annotation it is bit-identical
// to the plain overload.

#include "aig/aig.hpp"
#include "aig/choice.hpp"
#include "aig/cut.hpp"
#include "mapper/netlist.hpp"
#include "mapper/tech_mapper.hpp"

namespace emorphic {

/// Mapping effort knobs shared by every map_to_luts overload.
struct LutMapperParams {
  /// LUT input cap K; must lie in [2, kMaxCutSize] — one cut truth table
  /// (a 64-bit word) is the whole LUT configuration, so the enumeration
  /// bound is the backend bound. map_to_luts throws std::invalid_argument
  /// outside this range, the same contract as map_to_cells.
  unsigned lut_size = 6;
  /// Priority cuts kept per node (plus the trivial cut); must be >= 1.
  unsigned num_cuts = 8;
  /// Run the required-depth area-recovery pass after the depth-optimal
  /// pass.
  bool area_recovery = true;
};

/// Map an AIG onto k-input LUTs; returns a LUT netlist (a MappedNetlist
/// without a library: area() is the LUT count, delay() the LUT depth).
/// Throws std::invalid_argument unless 2 <= params.lut_size <= kMaxCutSize
/// and params.num_cuts >= 1.
MappedNetlist map_to_luts(const Aig& aig, const LutMapperParams& params = {},
                          MapperWorkspace* workspace = nullptr);

/// Choice-aware LUT mapping: select the best cut per node across every
/// structural variant recorded in the choice annotation. The annotation
/// must be finalized and fit the AIG. With no rings this is bit-identical
/// to the plain overload.
MappedNetlist map_to_luts(const ChoiceAig& caig,
                          const LutMapperParams& params = {},
                          MapperWorkspace* workspace = nullptr);

}  // namespace emorphic
