#pragma once
// Word-level circuit construction helpers and the arithmetic members of the
// EPFL-like benchmark family (adder, multiplier, square, div, sqrt, log2,
// sin, hyp). The real EPFL suite [20] is distribution-restricted input data;
// these generators rebuild circuits of the same character — deep carry
// chains, multiplier arrays, iterative restoring dividers — at laptop-scale
// widths (see DESIGN.md, Substitutions).

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"

namespace emorphic {

/// A little-endian word of AIG literals (bit 0 = LSB).
using Word = std::vector<Lit>;

/// Create `bits` fresh PIs named `name[i]`.
Word add_input_word(Aig& aig, const std::string& name, unsigned bits);
/// Register one PO per bit, named `name[i]`.
void add_output_word(Aig& aig, const std::string& name, const Word& word);

// --- combinational word operators -----------------------------------------
/// Ripple-carry addition; returns sum (same width) and sets *carry_out.
Word ripple_add(Aig& aig, const Word& a, const Word& b, Lit carry_in,
                Lit* carry_out);
/// a - b (two's complement); *no_borrow is 1 when a >= b.
Word ripple_sub(Aig& aig, const Word& a, const Word& b, Lit* no_borrow);

// --- benchmark circuits -----------------------------------------------------
Aig make_adder(unsigned bits);        // EPFL "adder"
Aig make_multiplier(unsigned bits);   // EPFL "multiplier"
Aig make_square(unsigned bits);       // EPFL "square"
Aig make_divisor(unsigned bits);      // EPFL "div" (quotient + remainder)
Aig make_sqrt(unsigned bits);         // EPFL "sqrt" (integer square root)
Aig make_log2(unsigned bits);         // EPFL "log2" (fixed-point log2)
Aig make_sin(unsigned bits);          // EPFL "sin" (polynomial approximation)
Aig make_hyp(unsigned bits);          // EPFL "hyp" (sqrt(x^2 + y^2))

}  // namespace emorphic
