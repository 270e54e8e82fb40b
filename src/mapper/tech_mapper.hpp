#pragma once
// Standard-cell technology mapping with priority cuts [23]:
//
//  * k-feasible priority cuts per AIG node (cut.hpp),
//  * NPN Boolean matching against the library (matcher.hpp),
//  * phase-aware dynamic programming: every node carries the best
//    implementation of both its positive and its negative polarity,
//    bridged by inverters at cost — complemented AIG edges therefore map
//    without any pre-lowering,
//  * a delay-optimal first pass followed by required-time-aware area
//    recovery (area-flow selection off the critical path) — the covering
//    DP of mapper/cover_dp.hpp, which the k-LUT backend shares,
//  * netlist construction (netlist.hpp) for the chosen cover.
//
// The ChoiceAig overload maps *choice-aware* (docs/mapping-internals.md):
// cut enumeration merges the cut sets of every choice-ring member into its
// representative (aig/choice.hpp, aig/cut.hpp), and the same DP then picks
// the best (arrival, area-flow) match across all structural variants of a
// signal — the e-graph's equivalence classes, not just the one extraction
// that was committed to. On an annotation without rings the overload
// reproduces the plain mapper exactly.
//
// This is both the paper's `map` step and the quality-prioritized cost
// oracle that scores candidate extractions during simulated annealing. For
// that hot path, pass a shared `Matcher` (so the NPN canonization tables and
// the match cache survive across evaluations) and a per-thread
// `MapperWorkspace` (so the DP state, required-time, and cut arenas stop
// churning the allocator); the library-only overload keeps the one-shot
// convenience API.

#include <memory>

#include "aig/aig.hpp"
#include "aig/choice.hpp"
#include "mapper/matcher.hpp"
#include "mapper/netlist.hpp"

namespace emorphic {

/// Mapping effort knobs shared by every map_to_cells overload.
struct MapperParams {
  /// Cut width K for matching; must lie in [2, kMaxCellPins] — the NPN
  /// matcher cannot implement wider cuts with a single cell (see
  /// cell_library.hpp for why this bound is 4, not kMaxCutSize).
  unsigned cut_size = 4;
  /// Priority cuts kept per node (plus the trivial cut).
  unsigned num_cuts = 8;
  /// Run the required-time-aware area-recovery pass after the
  /// delay-optimal pass.
  bool area_recovery = true;
};

namespace detail {
class CoverDp;
}  // namespace detail

/// Reusable scratch for repeated map_to_cells and map_to_luts calls (one
/// type for both backends, which share the covering DP): the per-node DP
/// state, required times, net ids, emission stack, and the cut arena.
/// Buffers are resized (keeping capacity) per call, so mapping many
/// same-scale candidate AIGs performs no steady-state allocation. Not
/// thread-safe: one workspace per thread.
class MapperWorkspace {
 public:
  MapperWorkspace();
  ~MapperWorkspace();
  MapperWorkspace(MapperWorkspace&&) noexcept;
  MapperWorkspace& operator=(MapperWorkspace&&) noexcept;

 private:
  friend class detail::CoverDp;
  struct Impl;  // mapper/cover_dp.hpp
  std::unique_ptr<Impl> impl_;
};

/// Map an AIG onto the library; returns the mapped netlist. Builds a fresh
/// Matcher per call — prefer the Matcher overload on hot paths.
MappedNetlist map_to_cells(const Aig& aig, const CellLibrary& library,
                           const MapperParams& params = {});

/// Map with a shared (thread-safe) matcher and an optional reusable
/// workspace. This is the SA evaluation hot path.
MappedNetlist map_to_cells(const Aig& aig, const Matcher& matcher,
                           const MapperParams& params = {},
                           MapperWorkspace* workspace = nullptr);

/// Choice-aware mapping: select the best match per node across every
/// structural variant recorded in the choice annotation (see the header
/// comment). The annotation must be finalized and fit the AIG. With no
/// rings this is bit-identical to the plain overload.
MappedNetlist map_to_cells(const ChoiceAig& caig, const Matcher& matcher,
                           const MapperParams& params = {},
                           MapperWorkspace* workspace = nullptr);

/// Convenience: map and report {area, delay} only.
struct MappedQor {
  double area = 0.0;
  double delay = 0.0;
};
MappedQor map_qor(const Aig& aig, const CellLibrary& library,
                  const MapperParams& params = {});
MappedQor map_qor(const Aig& aig, const Matcher& matcher,
                  const MapperParams& params = {},
                  MapperWorkspace* workspace = nullptr);

}  // namespace emorphic
