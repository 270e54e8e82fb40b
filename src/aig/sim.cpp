#include "aig/sim.hpp"

#include <cassert>

#include "aig/truth.hpp"

namespace emorphic {

std::vector<std::uint64_t> simulate_words(
    const Aig& aig, const std::vector<std::uint64_t>& pi_words) {
  assert(pi_words.size() == aig.num_pis());
  std::vector<std::uint64_t> value(aig.num_nodes(), 0);
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (aig.is_pi(v)) {
      value[v] = pi_words[aig.pi_index(v)];
    } else {
      Lit f0 = aig.fanin0(v);
      Lit f1 = aig.fanin1(v);
      std::uint64_t a = value[lit_var(f0)];
      std::uint64_t b = value[lit_var(f1)];
      if (lit_is_compl(f0)) a = ~a;
      if (lit_is_compl(f1)) b = ~b;
      value[v] = a & b;
    }
  }
  return value;
}

std::vector<std::uint64_t> simulate_words_multi(
    const Aig& aig, const std::vector<std::uint64_t>& pi_words,
    unsigned num_words) {
  assert(pi_words.size() ==
         static_cast<std::size_t>(aig.num_pis()) * num_words);
  const std::size_t w_total = num_words;
  std::vector<std::uint64_t> value(
      static_cast<std::size_t>(aig.num_nodes()) * w_total, 0);
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    std::uint64_t* out = &value[static_cast<std::size_t>(v) * w_total];
    if (aig.is_pi(v)) {
      const std::uint64_t* in =
          &pi_words[static_cast<std::size_t>(aig.pi_index(v)) * w_total];
      for (std::size_t w = 0; w < w_total; ++w) out[w] = in[w];
      continue;
    }
    Lit f0 = aig.fanin0(v);
    Lit f1 = aig.fanin1(v);
    const std::uint64_t* a = &value[static_cast<std::size_t>(lit_var(f0)) * w_total];
    const std::uint64_t* b = &value[static_cast<std::size_t>(lit_var(f1)) * w_total];
    std::uint64_t ma = lit_is_compl(f0) ? ~0ull : 0ull;
    std::uint64_t mb = lit_is_compl(f1) ? ~0ull : 0ull;
    for (std::size_t w = 0; w < w_total; ++w) out[w] = (a[w] ^ ma) & (b[w] ^ mb);
  }
  return value;
}

std::vector<std::uint64_t> expand_pattern(const std::vector<bool>& pattern,
                                          Rng& rng, double flip_p) {
  std::vector<std::uint64_t> words(pattern.size());
  for (std::size_t pi = 0; pi < pattern.size(); ++pi) {
    std::uint64_t base = pattern[pi] ? ~0ull : 0ull;
    std::uint64_t flips = 0;
    for (unsigned b = 1; b < 64; ++b) {
      if (rng.chance(flip_p)) flips |= 1ull << b;
    }
    words[pi] = base ^ flips;  // bit 0 is always the exact assignment
  }
  return words;
}

std::vector<std::uint64_t> po_signature(const Aig& aig, Rng& rng,
                                        unsigned num_words) {
  std::vector<std::uint64_t> result(
      static_cast<std::size_t>(aig.num_pos()) * num_words, 0);
  std::vector<std::uint64_t> pi_words(aig.num_pis());
  for (unsigned w = 0; w < num_words; ++w) {
    for (auto& word : pi_words) word = rng.next();
    auto value = simulate_words(aig, pi_words);
    for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
      Lit po = aig.po(i);
      std::uint64_t word = value[lit_var(po)];
      if (lit_is_compl(po)) word = ~word;
      result[static_cast<std::size_t>(i) * num_words + w] = word;
    }
  }
  return result;
}

bool sim_probably_equal(const Aig& a, const Aig& b, Rng& rng,
                        unsigned num_words) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) return false;
  std::vector<std::uint64_t> pi_words(a.num_pis());
  for (unsigned w = 0; w < num_words; ++w) {
    for (auto& word : pi_words) word = rng.next();
    auto va = simulate_words(a, pi_words);
    auto vb = simulate_words(b, pi_words);
    for (std::uint32_t i = 0; i < a.num_pos(); ++i) {
      Lit pa = a.po(i);
      Lit pb = b.po(i);
      std::uint64_t wa = va[lit_var(pa)] ^ (lit_is_compl(pa) ? ~0ull : 0ull);
      std::uint64_t wb = vb[lit_var(pb)] ^ (lit_is_compl(pb) ? ~0ull : 0ull);
      if (wa != wb) return false;
    }
  }
  return true;
}

std::uint64_t exhaustive_tt(const Aig& aig, unsigned po) {
  assert(aig.num_pis() <= 6);
  std::vector<std::uint64_t> pi_words(aig.num_pis());
  for (unsigned i = 0; i < aig.num_pis(); ++i) {
    pi_words[i] = tt_var(i, 6);  // 64 patterns = exhaustive for 6 inputs
  }
  auto value = simulate_words(aig, pi_words);
  Lit p = aig.po(po);
  std::uint64_t word = value[lit_var(p)];
  if (lit_is_compl(p)) word = ~word;
  unsigned n = aig.num_pis();
  return word & tt_mask(n);
}

}  // namespace emorphic
