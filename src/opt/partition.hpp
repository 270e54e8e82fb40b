#pragma once
// Window geometry for windowed (partitioned) saturation, the scaling mode
// whose flow lives in flow/partition_flow.hpp: a deterministic
// decomposition of an AIG into bounded fanin-cone windows, each window as a
// standalone AIG, and the stitch that rebuilds the whole circuit. All of it
// is a pure function of the circuit and the window size.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "aig/aig.hpp"

namespace emorphic {

/// Sentinel window id for variables that belong to no window (PIs, const0).
constexpr std::uint32_t kNoWindow = 0xffffffffu;

/// Counters of one windowed-flow run (flow/partition_flow.hpp).
struct PartitionStats {
  std::size_t num_windows = 0;
  std::size_t chunks_total = 0;
  /// Chunks replayed from the checkpoint file instead of recomputed.
  std::size_t chunks_resumed = 0;
  std::size_t windows_adopted = 0;
  /// Optimized window was not smaller (area, then level tiebreak).
  std::size_t windows_rejected_qor = 0;
  /// Optimized window failed (or exhausted) the SAT equivalence gate.
  std::size_t windows_rejected_cec = 0;
  std::size_t ands_before = 0;
  std::size_t ands_after = 0;
  /// False when the run stopped early (cancel flag or stop_after_chunks);
  /// the result AIG is then empty and the checkpoint holds the progress.
  bool completed = false;
};

/// Deterministic window assignment: scan AND nodes in ascending variable
/// order; each node joins the highest-numbered window among its AND fanins
/// if that window has room, else the most recently opened window if it has
/// room, else a fresh window. Every fanin's window id is <= its fanout's,
/// so stitching windows in ascending order is acyclic by construction.
struct WindowAssignment {
  /// Per variable: the window id, or kNoWindow for non-AND nodes.
  std::vector<std::uint32_t> window_of;
  std::size_t num_windows = 0;
};

WindowAssignment assign_windows(const Aig& aig, std::uint32_t window_size);

/// One window's interface: member AND variables, boundary inputs (PIs or
/// ANDs of earlier windows) and outputs (members referenced by later
/// windows or by a PO). All three lists are ascending.
struct Window {
  std::vector<Var> members;
  std::vector<Var> inputs;
  std::vector<Var> outputs;
};

std::vector<Window> build_windows(const Aig& aig,
                                  const WindowAssignment& assignment);

/// Materialize one window as a standalone AIG: one PI per boundary input
/// (named "v<var>"), one PO per boundary output, members replayed in order.
Aig extract_window(const Aig& aig, const Window& window);

/// Rebuild the whole circuit into a fresh AIG, windows ascending: window w
/// is replayed from `input`, or replaced by `optimized[w]` when set (a
/// circuit with extract_window's interface). Rebuilding, unlike
/// Aig::substitute, allows replacements with higher variable numbers and
/// strashes across window seams.
Aig stitch(const Aig& input, const std::vector<Window>& windows,
           const std::vector<std::optional<Aig>>& optimized);

}  // namespace emorphic
