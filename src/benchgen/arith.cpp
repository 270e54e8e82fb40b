#include "benchgen/arith.hpp"

#include <cassert>

namespace emorphic {

Word add_input_word(Aig& aig, const std::string& name, unsigned bits) {
  Word word(bits);
  for (unsigned i = 0; i < bits; ++i) {
    word[i] = make_lit(aig.add_pi(name + "[" + std::to_string(i) + "]"));
  }
  return word;
}

void add_output_word(Aig& aig, const std::string& name, const Word& word) {
  for (unsigned i = 0; i < word.size(); ++i) {
    aig.add_po(word[i], name + "[" + std::to_string(i) + "]");
  }
}

namespace {

/// Full adder on literals; returns (sum, carry).
std::pair<Lit, Lit> full_adder(Aig& aig, Lit a, Lit b, Lit c) {
  Lit sum = aig.make_xor(aig.make_xor(a, b), c);
  Lit carry = aig.make_maj(a, b, c);
  return {sum, carry};
}

Word zero_word(unsigned bits) { return Word(bits, kLitFalse); }

}  // namespace

Word ripple_add(Aig& aig, const Word& a, const Word& b, Lit carry_in,
                Lit* carry_out) {
  assert(a.size() == b.size());
  Word sum(a.size());
  Lit carry = carry_in;
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto [s, c] = full_adder(aig, a[i], b[i], carry);
    sum[i] = s;
    carry = c;
  }
  if (carry_out != nullptr) *carry_out = carry;
  return sum;
}

Word ripple_sub(Aig& aig, const Word& a, const Word& b, Lit* no_borrow) {
  assert(a.size() == b.size());
  Word not_b(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) not_b[i] = lit_not(b[i]);
  Lit carry = kLitTrue;  // a + ~b + 1
  Word diff = ripple_add(aig, a, not_b, carry, &carry);
  if (no_borrow != nullptr) *no_borrow = carry;  // carry==1 <-> a >= b
  return diff;
}

namespace {

/// Array multiplication, full 2n-bit product.
Word array_multiply(Aig& aig, const Word& a, const Word& b) {
  const unsigned n = static_cast<unsigned>(a.size());
  const unsigned m = static_cast<unsigned>(b.size());
  Word acc = zero_word(n + m);
  for (unsigned j = 0; j < m; ++j) {
    // Partial product a * b_j, shifted by j.
    Word pp = zero_word(n + m);
    for (unsigned i = 0; i < n; ++i) {
      pp[i + j] = aig.make_and(a[i], b[j]);
    }
    acc = ripple_add(aig, acc, pp, kLitFalse, nullptr);
  }
  return acc;
}

/// 2:1 word multiplexer: sel ? t : e.
Word word_mux(Aig& aig, Lit sel, const Word& t, const Word& e) {
  assert(t.size() == e.size());
  Word out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    out[i] = aig.make_mux(sel, t[i], e[i]);
  }
  return out;
}

/// Logical left shift by a constant.
Word shift_left(const Word& a, unsigned amount) {
  Word out(a.size(), kLitFalse);
  for (std::size_t i = amount; i < a.size(); ++i) out[i] = a[i - amount];
  return out;
}

/// Variable left shift (barrel), shift amount is a word.
Word barrel_shift_left(Aig& aig, const Word& a, const Word& amount) {
  Word cur = a;
  for (unsigned k = 0; k < amount.size(); ++k) {
    unsigned step = 1u << k;
    if (step >= cur.size()) break;
    cur = word_mux(aig, amount[k], shift_left(cur, step), cur);
  }
  return cur;
}

}  // namespace

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

Aig make_adder(unsigned bits) {
  Aig aig;
  Word a = add_input_word(aig, "a", bits);
  Word b = add_input_word(aig, "b", bits);
  Lit carry = kLitFalse;
  Word sum = ripple_add(aig, a, b, kLitFalse, &carry);
  add_output_word(aig, "s", sum);
  aig.add_po(carry, "cout");
  return aig;
}

Aig make_multiplier(unsigned bits) {
  Aig aig;
  Word a = add_input_word(aig, "a", bits);
  Word b = add_input_word(aig, "b", bits);
  Word p = array_multiply(aig, a, b);
  add_output_word(aig, "p", p);
  return aig;
}

Aig make_square(unsigned bits) {
  Aig aig;
  Word x = add_input_word(aig, "x", bits);
  Word p = array_multiply(aig, x, x);
  add_output_word(aig, "sq", p);
  return aig;
}

Aig make_divisor(unsigned bits) {
  Aig aig;
  Word a = add_input_word(aig, "a", bits);  // dividend
  Word b = add_input_word(aig, "b", bits);  // divisor
  // Restoring long division, MSB first. Remainder register is bits+1 wide
  // so the compare-subtract never overflows.
  Word r = zero_word(bits + 1);
  Word bx(bits + 1);
  for (unsigned i = 0; i < bits; ++i) bx[i] = b[i];
  bx[bits] = kLitFalse;

  Word quotient(bits, kLitFalse);
  for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
    // r = (r << 1) | a_i
    Word shifted = shift_left(r, 1);
    shifted[0] = a[i];
    Lit ge = kLitFalse;
    Word diff = ripple_sub(aig, shifted, bx, &ge);
    quotient[i] = ge;
    r = word_mux(aig, ge, diff, shifted);
  }
  add_output_word(aig, "q", quotient);
  Word rem(bits);
  for (unsigned i = 0; i < bits; ++i) rem[i] = r[i];
  add_output_word(aig, "r", rem);
  return aig;
}

Aig make_sqrt(unsigned bits) {
  assert(bits % 2 == 0);
  Aig aig;
  Word x = add_input_word(aig, "x", bits);
  const unsigned half = bits / 2;
  // Digit-recurrence (restoring) square root: one compare-subtract per
  // result bit against the trial value (root << 1 | 1) << (2*i).
  const unsigned w = bits + 2;
  Word rem = zero_word(w);
  for (unsigned i = 0; i < bits; ++i) rem[i] = x[i];
  Word root = zero_word(w);

  for (int i = static_cast<int>(half) - 1; i >= 0; --i) {
    // trial = (root << (i+1)) + (1 << 2i)
    Word trial = shift_left(root, static_cast<unsigned>(i) + 1);
    trial[2 * i] = kLitTrue;  // bit 2i of (root << (i+1)) is provably 0 here
    Lit ge = kLitFalse;
    Word diff = ripple_sub(aig, rem, trial, &ge);
    rem = word_mux(aig, ge, diff, rem);
    root[i] = ge;
  }
  Word result(half);
  for (unsigned i = 0; i < half; ++i) result[i] = root[i];
  add_output_word(aig, "root", result);
  Word rem_out(bits);
  for (unsigned i = 0; i < bits; ++i) rem_out[i] = rem[i];
  add_output_word(aig, "rem", rem_out);
  return aig;
}

Aig make_log2(unsigned bits) {
  Aig aig;
  Word x = add_input_word(aig, "x", bits);
  // Integer part: index of the most significant set bit (priority encoder).
  unsigned ibits = 0;
  while ((1u << ibits) < bits) ++ibits;
  Word ipart(ibits, kLitFalse);
  Lit found = kLitFalse;
  Word msb_onehot(bits, kLitFalse);
  for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
    Lit here = aig.make_and(x[i], lit_not(found));
    msb_onehot[i] = here;
    found = aig.make_or(found, x[i]);
    for (unsigned k = 0; k < ibits; ++k) {
      if ((static_cast<unsigned>(i) >> k) & 1u) {
        ipart[k] = aig.make_or(ipart[k], here);
      }
    }
  }
  // Normalize: shift so the MSB moves to the top — barrel shift by
  // (bits-1 - msb index); amount = ~ipart truncated (for power-of-two bits).
  Word amount(ibits);
  for (unsigned k = 0; k < ibits; ++k) amount[k] = lit_not(ipart[k]);
  Word mantissa = barrel_shift_left(aig, x, amount);

  // Fraction bits by repeated squaring of the normalized mantissa, using a
  // truncated window to keep the width bounded (digit-recurrence log).
  const unsigned mw = bits < 8 ? bits : 8;  // mantissa window
  Word m(mw);
  for (unsigned i = 0; i < mw; ++i) m[i] = mantissa[bits - mw + i];
  const unsigned fbits = 6;
  Word fraction(fbits, kLitFalse);
  for (unsigned fb = 0; fb < fbits; ++fb) {
    Word sq = array_multiply(aig, m, m);  // 2*mw bits
    // If the square's top bit is set, the digit is 1 and we keep the upper
    // half; otherwise shift one more.
    Lit digit = sq[2 * mw - 1];
    fraction[fbits - 1 - fb] = digit;
    Word hi(mw), lo(mw);
    for (unsigned i = 0; i < mw; ++i) {
      hi[i] = sq[mw + i];
      lo[i] = sq[mw + i - 1];
    }
    m = word_mux(aig, digit, hi, lo);
  }
  add_output_word(aig, "ip", ipart);
  add_output_word(aig, "fp", fraction);
  aig.add_po(found, "nonzero");
  return aig;
}

Aig make_sin(unsigned bits) {
  Aig aig;
  Word x = add_input_word(aig, "x", bits);
  // Fixed-point polynomial approximation sin(x) ~ x - x^3/6 on [0, 1):
  // x^3 via two truncated multiplications, division by 6 approximated by
  // (x^3 >> 3) + (x^3 >> 5) + (x^3 >> 7) (1/6 ~ 0.0101010_2).
  Word x2_full = array_multiply(aig, x, x);
  Word x2(bits);
  for (unsigned i = 0; i < bits; ++i) x2[i] = x2_full[bits + i];
  Word x3_full = array_multiply(aig, x2, x);
  Word x3(bits);
  for (unsigned i = 0; i < bits; ++i) x3[i] = x3_full[bits + i];

  auto shr = [&](const Word& w, unsigned k) {
    Word out(w.size(), kLitFalse);
    for (std::size_t i = 0; i + k < w.size(); ++i) out[i] = w[i + k];
    return out;
  };
  Word sixth = ripple_add(aig, shr(x3, 3), shr(x3, 5), kLitFalse, nullptr);
  sixth = ripple_add(aig, sixth, shr(x3, 7), kLitFalse, nullptr);
  Lit borrow_ok = kLitFalse;
  Word result = ripple_sub(aig, x, sixth, &borrow_ok);
  add_output_word(aig, "sin", result);
  return aig;
}

Aig make_hyp(unsigned bits) {
  Aig aig;
  Word a = add_input_word(aig, "a", bits);
  Word b = add_input_word(aig, "b", bits);
  Word a2 = array_multiply(aig, a, a);
  Word b2 = array_multiply(aig, b, b);
  Lit carry = kLitFalse;
  Word sum = ripple_add(aig, a2, b2, kLitFalse, &carry);
  sum.push_back(carry);
  if (sum.size() % 2 != 0) sum.push_back(kLitFalse);

  // Inline integer square root of the 2n(+2)-bit sum.
  const unsigned sbits = static_cast<unsigned>(sum.size());
  const unsigned half = sbits / 2;
  const unsigned w = sbits + 2;
  Word rem(w, kLitFalse);
  for (unsigned i = 0; i < sbits; ++i) rem[i] = sum[i];
  Word root(w, kLitFalse);
  for (int i = static_cast<int>(half) - 1; i >= 0; --i) {
    Word trial = shift_left(root, static_cast<unsigned>(i) + 1);
    trial[2 * i] = kLitTrue;  // bit 2i of (root << (i+1)) is provably 0 here
    Lit ge = kLitFalse;
    Word diff = ripple_sub(aig, rem, trial, &ge);
    rem = word_mux(aig, ge, diff, rem);
    root[i] = ge;
  }
  Word result(half);
  for (unsigned i = 0; i < half; ++i) result[i] = root[i];
  add_output_word(aig, "hyp", result);
  return aig;
}

}  // namespace emorphic
