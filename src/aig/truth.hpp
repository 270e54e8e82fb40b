#pragma once
// Truth-table kernel for small functions (up to 6 inputs in one 64-bit word)
// plus NPN canonicalization for functions of up to 4 inputs.
//
// Truth tables drive three substrates of the reproduction:
//  * k-feasible cut functions (cut.hpp),
//  * ISOP/SOP extraction for refactoring and SOP balancing (opt/sop.hpp),
//  * Boolean matching of cuts against standard cells (mapper/matcher.hpp).
//
// Convention: bit m of the table is the function value on the minterm whose
// i-th input equals bit i of m. `tt_mask(n)` keeps only the 2^n valid bits.

#include <array>
#include <cstdint>
#include <string>

namespace emorphic {

using Tt = std::uint64_t;

/// Bit mask of the valid truth-table bits for an n-input function (n <= 6).
inline constexpr Tt tt_mask(unsigned n) {
  return n >= 6 ? ~0ull : ((1ull << (1u << n)) - 1);
}

/// Projection of input variable `i` within an n-input domain.
Tt tt_var(unsigned i, unsigned n);

inline Tt tt_not(Tt t, unsigned n) { return ~t & tt_mask(n); }

/// Does the function depend on input `i`?
bool tt_depends_on(Tt t, unsigned i, unsigned n);

/// Positive / negative cofactor w.r.t. input `i` (result still n-input).
Tt tt_cofactor1(Tt t, unsigned i, unsigned n);
Tt tt_cofactor0(Tt t, unsigned i, unsigned n);

/// Number of minterms (ones) of an n-input function.
unsigned tt_count_ones(Tt t, unsigned n);

/// Re-express a function of `n_small` inputs over a larger support:
/// `pos[i]` is the position of old input `i` in the new n_big-input domain
/// and must be strictly increasing in `i`. Bits of `t` above 2^n_small are
/// ignored.
Tt tt_expand(Tt t, unsigned n_small, unsigned n_big, const std::array<std::uint8_t, 6>& pos);

/// Human-readable binary string (most significant minterm first).
std::string tt_to_string(Tt t, unsigned n);

// ---------------------------------------------------------------------------
// NPN canonicalization (n <= 4).
//
// A transform T = (perm, input_phase, output_phase) acts on f as
//   (T.f)(x_0..x_3) = f(z_0..z_3) ^ output_phase,   z_j = x_{perm[j]} ^ phase_j
// i.e. input j of the original function is driven by (possibly complemented)
// new variable perm[j]. Transforms compose and invert; `npn_canon` returns
// the lexicographically smallest table over all 24 * 16 * 2 transforms.
// ---------------------------------------------------------------------------

struct NpnTransform {
  std::array<std::uint8_t, 4> perm{{0, 1, 2, 3}};
  std::uint8_t input_phase = 0;  // bit j: input j of the function complemented
  bool output_phase = false;

  static NpnTransform identity() { return NpnTransform{}; }
};

/// Apply a transform to a 4-input truth table (tables use tt_mask(4)).
Tt npn_apply(Tt t, const NpnTransform& tr);

/// Compose: result acts as `second` after `first` (result.f == second.(first.f)).
NpnTransform npn_compose(const NpnTransform& second, const NpnTransform& first);

/// Inverse transform: npn_apply(npn_apply(t, tr), npn_inverse(tr)) == t.
NpnTransform npn_inverse(const NpnTransform& tr);

/// Canonical representative and the transform that produced it:
/// canon == npn_apply(t, *out_transform).
Tt npn_canon(Tt t, NpnTransform* out_transform = nullptr);

}  // namespace emorphic
