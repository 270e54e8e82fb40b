#pragma once
// A mapped (gate-level) netlist: the output of technology mapping and the
// object whose area / delay Table II reports. One type serves both mapping
// backends:
//
//  * a cell netlist (map_to_cells) instantiates cells of a library; each
//    gate takes its function, area and delay from its cell;
//  * a LUT netlist (map_to_luts) has no library; each gate carries its own
//    truth table at unit area and unit delay, so area() is the LUT count
//    and delay() the LUT depth (integers, exact as double).
//
// Everything else — nets, interface, arrival times, to_aig() — is shared;
// the two differ only in add_gate() and in the BLIF line a gate becomes
// (`.gate` for a cell, a `.names` cover for a LUT).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/truth.hpp"
#include "mapper/cell_library.hpp"

namespace emorphic {

namespace check {
struct CheckProbe;  // corruption-seeding seam for validator tests
}  // namespace check

/// One instantiated gate: a library cell or a LUT, driven by which nets.
struct MappedGate {
  /// Library cell id (index into CellLibrary::cells()); 0 in a LUT netlist.
  std::uint32_t cell = 0;
  /// Input net ids, in pin order (pin j reads inputs[j]).
  std::vector<std::uint32_t> inputs;
  /// Output net id.
  std::uint32_t output = 0;
  /// Function over `inputs` (bit m = output value when input j carries bit
  /// j of m). A LUT gate brings its table; add_gate sets a cell gate's from
  /// the library.
  Tt tt = 0;
  /// Area and pin-to-output delay; add_gate sets them (from the library for
  /// a cell, 1 for a LUT).
  double area = 0.0;
  double delay = 0.0;
};

/// A combinational mapped netlist over a cell library, or over k-LUTs when
/// it has no library.
class MappedNetlist {
 public:
  /// The library the gate ids refer to (must outlive the netlist); null
  /// makes a LUT netlist.
  explicit MappedNetlist(const CellLibrary* library = nullptr)
      : library_(library) {}

  /// Create a named net; returns its id.
  std::uint32_t add_net(std::string name);
  /// Append a gate; returns its index in gates(). A cell gate gets its
  /// function, area and delay from its library cell; a LUT gate keeps its
  /// `tt` and costs one unit of area and delay.
  std::uint32_t add_gate(MappedGate gate);
  /// Declare `net` a primary input.
  void add_pi(std::uint32_t net) { pis_.push_back(net); }
  /// Declare `net` a primary output named `name`.
  void add_po(std::uint32_t net, std::string name);
  /// Tie `net` to a constant (no driving gate).
  void set_const_net(std::uint32_t net, bool value);

  /// True for a LUT netlist (no cell library).
  bool is_lut() const { return library_ == nullptr; }
  /// The cell library gates are instantiated from; cell netlists only.
  const CellLibrary& library() const { return *library_; }
  /// All gates, in emission order (a gate's inputs are driven by earlier
  /// gates, PIs, or constant nets).
  const std::vector<MappedGate>& gates() const { return gates_; }
  /// Primary-input net ids, in interface order.
  const std::vector<std::uint32_t>& pis() const { return pis_; }
  /// Primary-output net ids, in interface order.
  const std::vector<std::uint32_t>& pos() const { return pos_; }
  /// Constant-tied nets and their values, in declaration order.
  const std::vector<std::pair<std::uint32_t, bool>>& const_nets() const {
    return const_nets_;
  }
  /// Name of a net (as written to BLIF).
  const std::string& net_name(std::uint32_t net) const { return net_names_[net]; }
  /// Number of nets (PIs, gate outputs, and constants included).
  std::size_t num_nets() const { return net_names_.size(); }
  /// Number of instantiated gates.
  std::size_t num_gates() const { return gates_.size(); }

  /// Total gate area (µm² for cells, the LUT count for LUTs).
  double area() const;
  /// Static worst-case arrival at any PO under the fixed-delay model (ps for
  /// cells, LUT levels for LUTs).
  double delay() const;
  /// Per-net arrival times.
  std::vector<double> arrival_times() const;

  /// Rebuild an AIG with the same function (ABC's `st` applied to a mapped
  /// network): each gate contributes its truth table as a factored SOP.
  Aig to_aig() const;

  /// BLIF dump (cells as .gate lines, LUTs as .names cover tables).
  std::string to_blif(const std::string& model_name) const;

 private:
  friend struct check::CheckProbe;

  const CellLibrary* library_;
  std::vector<MappedGate> gates_;
  std::vector<std::string> net_names_;
  std::vector<std::uint32_t> pis_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::string> po_names_;
  std::vector<std::pair<std::uint32_t, bool>> const_nets_;
};

}  // namespace emorphic
