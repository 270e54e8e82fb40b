#include "opt/partition.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace emorphic {

WindowAssignment assign_windows(const Aig& aig, std::uint32_t window_size) {
  if (window_size == 0) {
    throw std::invalid_argument("assign_windows: window_size must be >= 1");
  }
  WindowAssignment out;
  out.window_of.assign(aig.num_nodes(), kNoWindow);
  std::vector<std::uint32_t> fill;
  std::uint32_t last_open = kNoWindow;
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) continue;
    // Highest window among the AND fanins: joining it keeps fanin cones
    // together, and since fanin windows never exceed it, the fanin-window
    // <= fanout-window invariant holds for every choice below.
    std::uint32_t deepest = kNoWindow;
    for (Lit f : {aig.fanin0(v), aig.fanin1(v)}) {
      std::uint32_t w = out.window_of[lit_var(f)];
      if (w != kNoWindow && (deepest == kNoWindow || w > deepest)) deepest = w;
    }
    std::uint32_t w;
    if (deepest != kNoWindow && fill[deepest] < window_size) {
      w = deepest;
    } else if (last_open != kNoWindow && fill[last_open] < window_size) {
      w = last_open;
    } else {
      w = static_cast<std::uint32_t>(fill.size());
      fill.push_back(0);
      last_open = w;
    }
    out.window_of[v] = w;
    ++fill[w];
  }
  out.num_windows = fill.size();
  return out;
}

std::vector<Window> build_windows(const Aig& aig,
                                  const WindowAssignment& assignment) {
  std::vector<Window> windows(assignment.num_windows);
  std::vector<char> escapes(aig.num_nodes(), 0);
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    std::uint32_t w = assignment.window_of[v];
    if (w == kNoWindow) continue;
    windows[w].members.push_back(v);
    for (Lit f : {aig.fanin0(v), aig.fanin1(v)}) {
      Var fv = lit_var(f);
      std::uint32_t fw = assignment.window_of[fv];
      if (fv != 0 && fw != w) windows[w].inputs.push_back(fv);
      if (fw != kNoWindow && fw != w) escapes[fv] = 1;
    }
  }
  for (Lit po : aig.pos()) {
    Var pv = lit_var(po);
    if (assignment.window_of[pv] != kNoWindow) escapes[pv] = 1;
  }
  for (Window& w : windows) {
    std::sort(w.inputs.begin(), w.inputs.end());
    w.inputs.erase(std::unique(w.inputs.begin(), w.inputs.end()),
                   w.inputs.end());
    for (Var v : w.members) {
      if (escapes[v]) w.outputs.push_back(v);  // members ascending already
    }
  }
  return windows;
}

Aig extract_window(const Aig& aig, const Window& window) {
  Aig sub;
  std::vector<Lit> map(aig.num_nodes(), kLitFalse);
  for (Var in : window.inputs) {
    map[in] =
        make_lit(sub.add_pi(std::string("v").append(std::to_string(in))));
  }
  auto translate = [&map](Lit l) {
    return lit_notcond(map[lit_var(l)], lit_is_compl(l));
  };
  for (Var v : window.members) {
    map[v] = sub.make_and(translate(aig.fanin0(v)), translate(aig.fanin1(v)));
  }
  for (Var out : window.outputs) {
    sub.add_po(map[out], std::string("v").append(std::to_string(out)));
  }
  return sub;
}

Aig stitch(const Aig& input, const std::vector<Window>& windows,
           const std::vector<std::optional<Aig>>& optimized) {
  Aig out = Aig::like(input);
  std::vector<Lit> map(input.num_nodes(), kLitFalse);
  for (std::size_t i = 0; i < input.pis().size(); ++i) {
    map[input.pis()[i]] = make_lit(out.pis()[i]);
  }
  auto translate = [&map](Lit l) {
    return lit_notcond(map[lit_var(l)], lit_is_compl(l));
  };
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (optimized[w].has_value()) {
      const Aig& sub = *optimized[w];
      std::vector<Lit> smap(sub.num_nodes(), kLitFalse);
      for (std::size_t j = 0; j < windows[w].inputs.size(); ++j) {
        smap[sub.pis()[j]] = map[windows[w].inputs[j]];
      }
      auto sub_translate = [&smap](Lit l) {
        return lit_notcond(smap[lit_var(l)], lit_is_compl(l));
      };
      for (Var v = 1; v < sub.num_nodes(); ++v) {
        if (!sub.is_and(v)) continue;
        smap[v] = out.make_and(sub_translate(sub.fanin0(v)),
                               sub_translate(sub.fanin1(v)));
      }
      for (std::size_t j = 0; j < windows[w].outputs.size(); ++j) {
        map[windows[w].outputs[j]] = sub_translate(sub.po(j));
      }
    } else {
      for (Var v : windows[w].members) {
        map[v] = out.make_and(translate(input.fanin0(v)),
                              translate(input.fanin1(v)));
      }
    }
  }
  for (std::uint32_t i = 0; i < input.num_pos(); ++i) {
    out.set_po(i, translate(input.po(i)));
  }
  return out;
}

}  // namespace emorphic
