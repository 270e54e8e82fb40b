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
}  // namespace

Tt npn_canon(Tt t, NpnTransform* out_transform) {
  t &= tt_mask(4);
  Tt best = ~0ull;
  NpnTransform best_tr;
  for (const auto& perm : kPerms) {
    for (unsigned phase = 0; phase < 16; ++phase) {
      NpnTransform tr;
      tr.perm = {perm[0], perm[1], perm[2], perm[3]};
      tr.input_phase = static_cast<std::uint8_t>(phase);
      for (unsigned out_phase = 0; out_phase < 2; ++out_phase) {
        tr.output_phase = out_phase != 0;
        Tt candidate = npn_apply(t, tr);
        if (candidate < best) {
          best = candidate;
          best_tr = tr;
        }
      }
    }
  }
  if (out_transform != nullptr) *out_transform = best_tr;
  return best;
}

}  // namespace emorphic
