#include "util/rng.hpp"

namespace emorphic {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  // The splitmix64 generator: outputs of consecutive Weyl-sequence states.
  for (auto& s : s_) {
    s = splitmix64(seed);
    seed += 0x9e3779b97f4a7c15ull;
  }
  // Avoid the all-zero state (splitmix64 cannot produce four zeros from one
  // seed in practice, but be defensive).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Lemire's nearly-divisionless bounded generation; bias is negligible for
  // our bounds (all far below 2^64).
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  next_below(static_cast<std::uint64_t>(hi - lo + 1)));
}

}  // namespace emorphic
