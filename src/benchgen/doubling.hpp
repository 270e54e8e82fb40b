#pragma once
// Workload builders for SAT sweeping: "doubling" a circuit into two
// functionally equal but structurally different copies sharing the PIs.
// Structural hashing cannot merge the copies — a sweeping engine must —
// which makes these the canonical fraig benchmarks and test inputs.

#include "aig/aig.hpp"

namespace emorphic {

/// `base` and its sop-balanced restructuring in one AIG sharing the PI
/// nodes: `base`'s POs (suffix "_x") followed by the restructured copy's
/// (suffix "_y"), functionally equal PO pairs with structurally distinct
/// cones.
Aig doubled(const Aig& base);

}  // namespace emorphic
