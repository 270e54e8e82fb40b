#include "mapper/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "opt/sop.hpp"

namespace emorphic {

std::uint32_t MappedNetlist::add_net(std::string name) {
  net_names_.push_back(std::move(name));
  return static_cast<std::uint32_t>(net_names_.size() - 1);
}

std::uint32_t MappedNetlist::add_gate(MappedGate gate) {
  if (library_ != nullptr) {
    const Cell& cell = library_->cell(gate.cell);
    gate.tt = cell.tt & tt_mask(cell.num_inputs);
    gate.area = cell.area;
    gate.delay = cell.delay;
  } else {
    gate.area = 1.0;
    gate.delay = 1.0;
  }
  gates_.push_back(std::move(gate));
  return static_cast<std::uint32_t>(gates_.size() - 1);
}

void MappedNetlist::add_po(std::uint32_t net, std::string name) {
  pos_.push_back(net);
  po_names_.push_back(std::move(name));
}

void MappedNetlist::set_const_net(std::uint32_t net, bool value) {
  const_nets_.emplace_back(net, value);
}

double MappedNetlist::area() const {
  double total = 0.0;
  for (const MappedGate& g : gates_) total += g.area;
  return total;
}

std::vector<double> MappedNetlist::arrival_times() const {
  std::vector<double> arrival(net_names_.size(), 0.0);
  // Gates are appended in topological order by the mapper.
  for (const MappedGate& g : gates_) {
    double worst = 0.0;
    for (std::uint32_t in : g.inputs) worst = std::max(worst, arrival[in]);
    arrival[g.output] = worst + g.delay;
  }
  return arrival;
}

double MappedNetlist::delay() const {
  auto arrival = arrival_times();
  double worst = 0.0;
  for (std::uint32_t po : pos_) worst = std::max(worst, arrival[po]);
  return worst;
}

Aig MappedNetlist::to_aig() const {
  Aig aig;
  std::vector<Lit> net_lit(net_names_.size(), kLitFalse);
  std::vector<bool> driven(net_names_.size(), false);
  for (std::size_t i = 0; i < pis_.size(); ++i) {
    net_lit[pis_[i]] = make_lit(aig.add_pi(net_names_[pis_[i]]));
    driven[pis_[i]] = true;
  }
  for (const auto& [net, value] : const_nets_) {
    net_lit[net] = value ? kLitTrue : kLitFalse;
    driven[net] = true;
  }
  for (const MappedGate& g : gates_) {
    const unsigned k = static_cast<unsigned>(g.inputs.size());
    std::vector<Lit> leaves(k);
    for (unsigned j = 0; j < k; ++j) {
      assert(driven[g.inputs[j]] && "netlist gates must be topological");
      leaves[j] = net_lit[g.inputs[j]];
    }
    net_lit[g.output] = build_sop(aig, g.tt & tt_mask(k), k, leaves);
    driven[g.output] = true;
  }
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    if (!driven[pos_[i]]) {
      throw std::runtime_error("netlist PO net is undriven: " +
                               net_names_[pos_[i]]);
    }
    aig.add_po(net_lit[pos_[i]], po_names_[i]);
  }
  return aig.cleanup();
}

std::string MappedNetlist::to_blif(const std::string& model_name) const {
  std::ostringstream out;
  out << ".model " << model_name << "\n.inputs";
  for (std::uint32_t net : pis_) out << ' ' << net_names_[net];
  out << "\n.outputs";
  for (std::size_t i = 0; i < pos_.size(); ++i) out << ' ' << po_names_[i];
  out << "\n";
  for (const auto& [net, value] : const_nets_) {
    out << ".names " << net_names_[net] << "\n";
    if (value) out << "1\n";
  }
  for (const MappedGate& g : gates_) {
    if (library_ != nullptr) {
      const Cell& cell = library_->cell(g.cell);
      out << ".gate " << cell.name;
      for (unsigned j = 0; j < cell.num_inputs; ++j) {
        out << ' ' << cell.input_names[j] << '=' << net_names_[g.inputs[j]];
      }
      out << ' ' << cell.output_name << '=' << net_names_[g.output] << "\n";
      continue;
    }
    // A LUT: one cover row per ON-set minterm; row character j is input j.
    const unsigned k = static_cast<unsigned>(g.inputs.size());
    out << ".names";
    for (std::uint32_t in : g.inputs) out << ' ' << net_names_[in];
    out << ' ' << net_names_[g.output] << "\n";
    const Tt f = g.tt & tt_mask(k);
    for (unsigned m = 0; m < (1u << k); ++m) {
      if (((f >> m) & 1) == 0) continue;
      for (unsigned j = 0; j < k; ++j) out << (((m >> j) & 1) ? '1' : '0');
      out << " 1\n";
    }
  }
  // Alias PO names onto their driving nets.
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    if (net_names_[pos_[i]] != po_names_[i]) {
      out << ".names " << net_names_[pos_[i]] << ' ' << po_names_[i]
          << "\n1 1\n";
    }
  }
  out << ".end\n";
  return out.str();
}

}  // namespace emorphic
