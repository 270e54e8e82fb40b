#pragma once
// Deterministic fast pseudo-random number generation (xoshiro256**).
//
// Every randomized component in E-morphic (simulated-annealing extraction,
// random extraction, dataset generation, random simulation) takes an
// explicit seed so experiments are reproducible run-to-run.

#include <cstdint>

namespace emorphic {

/// The splitmix64 output function (Vigna): a stateless, full-avalanche
/// 64-bit mixer. Rng::reseed expands a seed with it; structural signatures,
/// checkpoint fingerprints, cache keys and derived seeds all hash with it.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed of the `index`-th sub-run of a run seeded with `base_seed` (a
/// partition chunk, a window in it): decorrelated across indices so
/// sub-runs never share SA chains, and never 0, which the pipeline reads
/// as "no override".
inline std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index) {
  std::uint64_t seed = splitmix64(base_seed ^ splitmix64(index + 1));
  return seed != 0 ? seed : 0x9e3779b97f4a7c15ull;
}

/// xoshiro256** 1.0 by Blackman & Vigna — small, fast, high quality.
/// Not cryptographic; perfectly adequate for stochastic search.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  /// Re-initialize the state from a single 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform value in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with probability p.
  bool chance(double p) { return next_double() < p; }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

 private:
  std::uint64_t s_[4];
};

}  // namespace emorphic
