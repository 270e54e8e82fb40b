#pragma once
// Bit-parallel random simulation of AIGs: 64 input patterns per word.
//
// Used by the equivalence checker as a cheap refutation front-end before
// SAT (Sec. IV-A verifies every E-morphic output with ABC `cec`; our `cec`
// plays the same role), and by tests as a functional fingerprint.

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "util/rng.hpp"

namespace emorphic {

/// Simulate with one 64-bit word per PI; returns one word per variable.
std::vector<std::uint64_t> simulate_words(const Aig& aig,
                                          const std::vector<std::uint64_t>& pi_words);

/// Multi-word simulation, node-major result: value of variable `v` under
/// word `w` is `result[v * num_words + w]`. `pi_words` uses the same layout
/// over PI indices (`pi_words[pi * num_words + w]`).
std::vector<std::uint64_t> simulate_words_multi(
    const Aig& aig, const std::vector<std::uint64_t>& pi_words,
    unsigned num_words);

/// Expand one concrete input assignment into a 64-pattern word per PI:
/// bit 0 replays the assignment exactly, bits 1..63 are random neighbors
/// (each PI flipped with probability `flip_p`). Replaying a refuting SAT
/// assignment through this provably splits the two refuted nodes' simulation
/// signatures (bit 0 distinguishes them), and the neighbor patterns let one
/// counterexample split further near-miss candidate pairs as well.
std::vector<std::uint64_t> expand_pattern(const std::vector<bool>& pattern,
                                          Rng& rng, double flip_p = 0.05);

/// Simulate `num_words` random words and return the PO values,
/// laid out as po-major: result[po * num_words + w].
std::vector<std::uint64_t> po_signature(const Aig& aig, Rng& rng,
                                        unsigned num_words);

/// Monte-Carlo equivalence: identical PO signatures on random patterns.
/// A `false` result is a definitive counterexample; `true` is only
/// probabilistic (follow up with SAT-based cec for proof).
bool sim_probably_equal(const Aig& a, const Aig& b, Rng& rng,
                        unsigned num_words = 16);

/// Exhaustive truth table of PO `po` for circuits with <= 6 PIs.
std::uint64_t exhaustive_tt(const Aig& aig, unsigned po);

}  // namespace emorphic
