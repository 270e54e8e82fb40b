#include "mapper/matcher.hpp"

#include <cassert>

namespace emorphic {

namespace {

/// Cache key: the padded 16-bit table plus the leaf count. The leaf count
/// is part of the key because the padding-pin validity check depends on it.
std::uint32_t cache_key(Tt tt, unsigned num_leaves) {
  return (static_cast<std::uint32_t>(tt) << 3) | num_leaves;
}

}  // namespace

Matcher::Matcher(const CellLibrary& library) : library_(library) {
  for (std::uint32_t id = 0; id < library_.size(); ++id) {
    const Cell& cell = library_.cell(id);
    if (cell.num_inputs > kMaxCellPins) continue;
    NpnTransform tr;
    Tt canon = npn_canon(cell.tt, &tr);
    canon_cells_[canon].push_back(CellEntry{id, tr});
  }
}

std::vector<CellMatch> Matcher::compute_matches(Tt tt,
                                                unsigned num_leaves) const {
  std::vector<CellMatch> matches;
  NpnTransform cut_transform;
  Tt canon = npn_canon(tt, &cut_transform);
  auto cells = canon_cells_.find(canon);
  if (cells == canon_cells_.end()) return matches;
  for (const CellEntry& ce : cells->second) {
    // canon == apply(cell_tt, Tcell) and canon == apply(cut_tt, Tcut)
    //  =>  cut_tt == apply(cell_tt, compose(inverse(Tcut), Tcell)).
    NpnTransform comb = npn_compose(npn_inverse(cut_transform), ce.transform);
    const Cell& cell = library_.cell(ce.cell);
    assert(npn_apply(cell.tt, comb) == tt && "NPN match must reconstruct");

    CellMatch m;
    m.cell = ce.cell;
    m.output_compl = comb.output_phase;
    bool valid = true;
    for (unsigned j = 0; j < cell.num_inputs; ++j) {
      unsigned leaf = comb.perm[j];
      if (leaf >= num_leaves) {
        // The cell pin would read a padding variable; only possible if the
        // cut function ignores a leaf — skip such degenerate matches.
        valid = false;
        break;
      }
      m.pin_leaf[j] = static_cast<std::uint8_t>(leaf);
      if ((comb.input_phase >> j) & 1u) {
        m.pin_compl |= static_cast<std::uint8_t>(1u << j);
      }
    }
    if (valid) matches.push_back(m);
  }
  return matches;
}

const std::vector<CellMatch>& Matcher::match(Tt tt,
                                             unsigned num_leaves) const {
  tt &= tt_mask(4);
  if (num_leaves > kMaxCellPins) num_leaves = kMaxCellPins;
  const std::uint32_t key = cache_key(tt, num_leaves);
  Shard& shard = shards_[(key * 0x9e3779b9u) >> 28 & (kNumShards - 1)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) return *it->second;
  }
  // Miss: canonize and filter outside the lock; a racing thread computing
  // the same entry loses the emplace and its copy is discarded.
  auto matches = std::make_unique<const std::vector<CellMatch>>(
      compute_matches(tt, num_leaves));
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto [it, inserted] = shard.entries.emplace(key, std::move(matches));
  (void)inserted;
  return *it->second;
}

}  // namespace emorphic
