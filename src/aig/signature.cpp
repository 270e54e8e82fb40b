#include "aig/signature.hpp"

#include "util/rng.hpp"

namespace emorphic {

namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ v) * 0x2545f4914f6cdd1dull;
}

}  // namespace

std::uint64_t structural_signature(const Aig& aig) {
  std::uint64_t h = 0x517cc1b727220a95ull;
  h = fold(h, aig.num_nodes());
  h = fold(h, aig.num_pis());
  for (Var v = 0; v < aig.num_nodes(); ++v) {
    if (aig.is_and(v)) {
      h = fold(h, (static_cast<std::uint64_t>(aig.fanin0(v)) << 32) |
                      aig.fanin1(v));
    } else {
      // PIs hash by position (fanin0 stores the PI index), constants by tag.
      h = fold(h, aig.is_pi(v) ? 0x100000000ull + aig.pi_index(v) : 0x2ull);
    }
  }
  for (Lit po : aig.pos()) h = fold(h, 0x300000000ull + po);
  return h;
}

}  // namespace emorphic
