#include "aig/truth.hpp"

#include <bit>
#include <cassert>

namespace emorphic {

namespace {
// Standard projection patterns for variables 0..5 in a 6-input domain.
constexpr Tt kProj[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull,
};
}  // namespace

Tt tt_var(unsigned i, unsigned n) {
  assert(i < n && n <= 6);
  return kProj[i] & tt_mask(n);
}

bool tt_depends_on(Tt t, unsigned i, unsigned n) {
  return tt_cofactor0(t, i, n) != tt_cofactor1(t, i, n);
}

Tt tt_cofactor1(Tt t, unsigned i, unsigned n) {
  Tt hi = t & kProj[i];
  unsigned shift = 1u << i;
  return (hi | (hi >> shift)) & tt_mask(n);
}

Tt tt_cofactor0(Tt t, unsigned i, unsigned n) {
  Tt lo = t & ~kProj[i];
  unsigned shift = 1u << i;
  return (lo | (lo << shift)) & tt_mask(n);
}

unsigned tt_count_ones(Tt t, unsigned n) {
  return static_cast<unsigned>(std::popcount(t & tt_mask(n)));
}

Tt tt_expand(Tt t, unsigned n_small, unsigned n_big,
             const std::array<std::uint8_t, 6>& pos) {
  assert(n_small <= n_big && n_big <= 6);
  // Replicate the 2^n_small defined bits across the word: the table now
  // reads as a 6-input function that ignores inputs n_small..5.
  t &= tt_mask(n_small);
  for (unsigned s = n_small; s < 6; ++s) t |= t << (1u << s);
  // Move inputs to their new positions, highest first. `pos` is strictly
  // increasing, so pos[i] lies above every input not yet moved and below
  // every input already moved: the table ignores it, and one masked delta
  // swap of input i with input pos[i] relocates i. Once pos[i] == i, every
  // lower input is already in place too.
  for (unsigned i = n_small; i-- > 0;) {
    const unsigned p = pos[i];
    if (p == i) break;
    const unsigned shift = (1u << p) - (1u << i);
    const Tt delta = ((t >> shift) ^ t) & kProj[i] & ~kProj[p];
    t ^= delta | (delta << shift);
  }
  return t & tt_mask(n_big);
}

std::string tt_to_string(Tt t, unsigned n) {
  unsigned size = 1u << n;
  std::string s(size, '0');
  for (unsigned m = 0; m < size; ++m) {
    if ((t >> m) & 1ull) s[size - 1 - m] = '1';
  }
  return s;
}

Tt npn_apply(Tt t, const NpnTransform& tr) {
  Tt out = 0;
  for (unsigned m = 0; m < 16; ++m) {
    unsigned src = 0;  // minterm of the original function
    for (unsigned j = 0; j < 4; ++j) {
      unsigned z = ((m >> tr.perm[j]) & 1u) ^ ((tr.input_phase >> j) & 1u);
      src |= z << j;
    }
    Tt bit = ((t >> src) & 1ull) ^ static_cast<Tt>(tr.output_phase);
    out |= bit << m;
  }
  return out;
}

NpnTransform npn_compose(const NpnTransform& second, const NpnTransform& first) {
  // (second.(first.f))(x) = f(w),
  //   w_k = x_{second.perm[first.perm[k]]}
  //         ^ second.phase[first.perm[k]] ^ first.phase[k]
  NpnTransform out;
  for (unsigned k = 0; k < 4; ++k) {
    out.perm[k] = second.perm[first.perm[k]];
    unsigned phase = ((first.input_phase >> k) & 1u) ^
                     ((second.input_phase >> first.perm[k]) & 1u);
    out.input_phase |= static_cast<std::uint8_t>(phase << k);
  }
  out.output_phase = first.output_phase ^ second.output_phase;
  return out;
}

NpnTransform npn_inverse(const NpnTransform& tr) {
  NpnTransform out;
  for (unsigned j = 0; j < 4; ++j) out.perm[tr.perm[j]] = static_cast<std::uint8_t>(j);
  for (unsigned j = 0; j < 4; ++j) {
    unsigned phase = (tr.input_phase >> out.perm[j]) & 1u;
    out.input_phase |= static_cast<std::uint8_t>(phase << j);
  }
  out.output_phase = tr.output_phase;
  return out;
}

namespace {
constexpr std::uint8_t kPerms[24][4] = {
    {0, 1, 2, 3}, {0, 1, 3, 2}, {0, 2, 1, 3}, {0, 2, 3, 1}, {0, 3, 1, 2},
    {0, 3, 2, 1}, {1, 0, 2, 3}, {1, 0, 3, 2}, {1, 2, 0, 3}, {1, 2, 3, 0},
    {1, 3, 0, 2}, {1, 3, 2, 0}, {2, 0, 1, 3}, {2, 0, 3, 1}, {2, 1, 0, 3},
    {2, 1, 3, 0}, {2, 3, 0, 1}, {2, 3, 1, 0}, {3, 0, 1, 2}, {3, 0, 2, 1},
    {3, 1, 0, 2}, {3, 1, 2, 0}, {3, 2, 0, 1}, {3, 2, 1, 0},
};

/// kPermSource[p][m]: the minterm of f that minterm m of f's image under
/// permutation kPerms[p] (no phases) reads; input j of f is bit kPerms[p][j]
/// of m, as in npn_apply.
constexpr auto kPermSource = [] {
  std::array<std::array<std::uint8_t, 16>, 24> source{};
  for (unsigned p = 0; p < 24; ++p) {
    for (unsigned m = 0; m < 16; ++m) {
      unsigned src = 0;
      for (unsigned j = 0; j < 4; ++j) src |= ((m >> kPerms[p][j]) & 1u) << j;
      source[p][m] = static_cast<std::uint8_t>(src);
    }
  }
  return source;
}();

/// The 4-input table with input `i` complemented: its two cofactor halves
/// swap places.
Tt flip_input(Tt t, unsigned i) {
  const unsigned shift = 1u << i;
  return (((t & kProj[i]) >> shift) | ((t & ~kProj[i]) << shift)) & tt_mask(4);
}

}  // namespace

// The result is npn_apply's minimum over all 768 transforms, and the
// transform is the first to reach it in perm -> input phase -> output phase
// order. Per permutation the table is permuted once; the 16 input phases follow in
// Gray-code order, each one input flip away from an earlier one, and are
// then compared in plain phase order so ties resolve as in that search.
Tt npn_canon(Tt t, NpnTransform* out_transform) {
  t &= tt_mask(4);
  Tt best = ~0ull;
  unsigned best_perm = 0;
  unsigned best_phase = 0;
  bool best_output = false;
  std::array<Tt, 16> phased{};  // indexed by input phase
  for (unsigned p = 0; p < 24; ++p) {
    Tt permuted = 0;
    for (unsigned m = 0; m < 16; ++m) {
      permuted |= ((t >> kPermSource[p][m]) & 1ull) << m;
    }
    // Complementing input j of f complements input kPerms[p][j] of the
    // permuted table.
    phased[0] = permuted;
    unsigned prev = 0;
    for (unsigned k = 1; k < 16; ++k) {
      const unsigned phase = k ^ (k >> 1);
      const unsigned j = static_cast<unsigned>(std::countr_zero(phase ^ prev));
      phased[phase] = flip_input(phased[prev], kPerms[p][j]);
      prev = phase;
    }
    for (unsigned phase = 0; phase < 16; ++phase) {
      if (phased[phase] < best) {
        best = phased[phase];
        best_perm = p;
        best_phase = phase;
        best_output = false;
      }
      const Tt complemented = phased[phase] ^ tt_mask(4);
      if (complemented < best) {
        best = complemented;
        best_perm = p;
        best_phase = phase;
        best_output = true;
      }
    }
  }
  if (out_transform != nullptr) {
    const std::uint8_t* perm = kPerms[best_perm];
    out_transform->perm = {perm[0], perm[1], perm[2], perm[3]};
    out_transform->input_phase = static_cast<std::uint8_t>(best_phase);
    out_transform->output_phase = best_output;
  }
  return best;
}

}  // namespace emorphic
