#include "opt/fraig.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "aig/sim.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace emorphic {

namespace {

using sat::PairVerdict;
using sat::Solver;

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Candidate-equivalence classes over all AIG variables (constant and PIs
/// included — they are valid merge representatives, only AND nodes merge
/// away). Signatures are complement-normalized: `phase[v]` is the node's
/// value under the very first simulation pattern, and every signature word
/// is XORed with that phase before comparison, so a node and its negation
/// share a class with opposite phases.
struct Partition {
  std::vector<std::int32_t> class_of;     // -1 = singleton / merged away
  std::vector<bool> phase;                // complement normalization per var
  std::vector<std::vector<Var>> classes;  // members ascending by var
};

/// Normalized signature row of `v`: w words starting at values[v*w], each
/// XORed with the node's phase mask.
bool rows_equal(const Partition& part, const std::vector<std::uint64_t>& values,
                unsigned w, Var a, Var b) {
  const std::uint64_t* ra = &values[static_cast<std::size_t>(a) * w];
  const std::uint64_t* rb = &values[static_cast<std::size_t>(b) * w];
  std::uint64_t ma = part.phase[a] ? ~0ull : 0ull;
  std::uint64_t mb = part.phase[b] ? ~0ull : 0ull;
  for (unsigned i = 0; i < w; ++i) {
    if ((ra[i] ^ ma) != (rb[i] ^ mb)) return false;
  }
  return true;
}

Partition initial_partition(const Aig& aig,
                            const std::vector<std::uint64_t>& values,
                            unsigned w) {
  const std::size_t n = aig.num_nodes();
  Partition part;
  part.class_of.assign(n, -1);
  part.phase.assign(n, false);
  // Hash buckets resolve to exact class ids by exemplar comparison.
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> buckets;
  buckets.reserve(n);
  for (Var v = 0; v < n; ++v) {
    const std::uint64_t* row = &values[static_cast<std::size_t>(v) * w];
    bool ph = (row[0] & 1) != 0;
    part.phase[v] = ph;
    std::uint64_t mask = ph ? ~0ull : 0ull;
    std::uint64_t h = 0;
    for (unsigned i = 0; i < w; ++i) h = mix(h, row[i] ^ mask);
    std::vector<std::int32_t>& ids = buckets[h];
    std::int32_t found = -1;
    for (std::int32_t id : ids) {
      if (rows_equal(part, values, w, part.classes[id][0], v)) {
        found = id;
        break;
      }
    }
    if (found < 0) {
      found = static_cast<std::int32_t>(part.classes.size());
      part.classes.emplace_back();
      ids.push_back(found);
    }
    part.classes[found].push_back(v);
    part.class_of[v] = found;
  }
  for (std::vector<Var>& members : part.classes) {
    if (members.size() < 2) {
      for (Var v : members) part.class_of[v] = -1;
      members.clear();
    }
  }
  return part;
}

/// Split every class from index `from` on by the normalized signature over
/// `values` (node-major, `w` words per node). The subgroup containing the
/// class minimum keeps the class id; the rest are appended as new classes
/// (or retired when they shrink to singletons). Returns how many classes
/// actually split.
std::size_t refine_classes(Partition& part,
                           const std::vector<std::uint64_t>& values, unsigned w,
                           std::size_t from) {
  std::size_t splits = 0;
  const std::size_t initial = part.classes.size();  // appended ones are split
  for (std::size_t c = from; c < initial; ++c) {
    std::vector<Var>& members = part.classes[c];
    if (members.size() < 2) continue;
    // Group members by normalized row; member order (ascending) is kept, so
    // the first group contains the class minimum.
    std::vector<std::vector<Var>> groups;
    for (Var m : members) {
      std::int32_t found = -1;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (rows_equal(part, values, w, groups[g][0], m)) {
          found = static_cast<std::int32_t>(g);
          break;
        }
      }
      if (found < 0) {
        groups.emplace_back();
        found = static_cast<std::int32_t>(groups.size() - 1);
      }
      groups[static_cast<std::size_t>(found)].push_back(m);
    }
    if (groups.size() == 1) continue;
    ++splits;
    members = std::move(groups[0]);
    if (members.size() < 2) {
      for (Var v : members) part.class_of[v] = -1;
      members.clear();
    }
    for (std::size_t g = 1; g < groups.size(); ++g) {
      if (groups[g].size() < 2) {
        for (Var v : groups[g]) part.class_of[v] = -1;
        continue;
      }
      std::int32_t id = static_cast<std::int32_t>(part.classes.size());
      for (Var v : groups[g]) part.class_of[v] = id;
      part.classes.push_back(std::move(groups[g]));
    }
  }
  return splits;
}

std::vector<Lit> identity_replacement(const Aig& aig) {
  std::vector<Lit> replacement(aig.num_nodes());
  for (Var v = 0; v < aig.num_nodes(); ++v) replacement[v] = make_lit(v);
  return replacement;
}

Aig sweep_guided(const Aig& aig, const FraigParams& params, FraigStats& stats,
                 const std::function<bool()>& stop) {
  Rng rng(params.seed);

  const unsigned w = std::max(1u, params.sim_words);
  auto random_values = [&] {
    std::vector<std::uint64_t> pi_words(
        static_cast<std::size_t>(aig.num_pis()) * w);
    for (std::uint64_t& word : pi_words) word = rng.next();
    stats.sim_words += w;
    return simulate_words_multi(aig, pi_words, w);
  };

  Partition part = initial_partition(aig, random_values(), w);
  for (unsigned round = 0; round < params.sim_rounds; ++round) {
    if (refine_classes(part, random_values(), w, 0) == 0) break;
  }
  for (const std::vector<Var>& members : part.classes) {
    if (members.size() < 2) continue;
    ++stats.classes;
    stats.candidate_nodes += members.size();
  }

  Solver solver;
  std::vector<sat::SatVar> smap = sat::encode_aig(solver, aig);
  std::vector<Lit> replacement = identity_replacement(aig);

  for (std::size_t c = 0; c < part.classes.size(); ++c) {
    if (part.classes[c].size() < 2) continue;
    if (part.classes[c].size() > params.max_class_size) {
      stats.skipped_class_nodes += part.classes[c].size();
      continue;
    }
    // Pairs abandoned at the conflict limit: remembered so a replay reset
    // does not re-spend their budget.
    std::unordered_set<Var> undecided;
    std::size_t i = 1;
    while (i < part.classes[c].size()) {
      Var rep = part.classes[c][0];
      Var m = part.classes[c][i];
      if (!aig.is_and(m) || undecided.count(m) != 0) {
        ++i;
        continue;
      }
      if (stop && stop()) return aig.substitute(replacement);
      bool relphase = part.phase[m] != part.phase[rep];
      PairVerdict verdict = sat::prove_pair(
          solver, sat::lit_to_sat(smap, make_lit(rep)),
          sat::lit_to_sat(smap, make_lit(m, relphase)), params.conflict_limit,
          stats.sat_calls);
      if (verdict == PairVerdict::kEqual) {
        ++stats.proved;
        replacement[m] = make_lit(rep, relphase);
        part.class_of[m] = -1;
        part.classes[c].erase(part.classes[c].begin() +
                              static_cast<std::ptrdiff_t>(i));
      } else if (verdict == PairVerdict::kUndecided) {
        ++stats.undecided;
        undecided.insert(m);
        ++i;
      } else {
        // Replay the counterexample (bit 0 exact, bits 1..63 neighbors):
        // it provably evicts `m` from this class, and splits any other
        // not-yet-processed class it distinguishes.
        std::vector<bool> cex(aig.num_pis());
        for (std::uint32_t k = 0; k < aig.num_pis(); ++k) {
          cex[k] = solver.model_value(smap[aig.pis()[k]]);
        }
        ++stats.refuted;
        ++stats.cex_replays;
        ++stats.sim_words;
        std::vector<std::uint64_t> word = expand_pattern(cex, rng);
        std::vector<std::uint64_t> values = simulate_words(aig, word);
        refine_classes(part, values, 1, c);
        i = 1;  // membership changed; `undecided` guards against re-queries
      }
    }
  }
  return aig.substitute(replacement);
}

Aig sweep_naive(const Aig& aig, const FraigParams& params, FraigStats& stats,
                const std::function<bool()>& stop) {
  Solver solver;
  std::vector<sat::SatVar> smap = sat::encode_aig(solver, aig);
  std::vector<Lit> replacement = identity_replacement(aig);
  for (Var m = 1; m < aig.num_nodes(); ++m) {
    if (!aig.is_and(m)) continue;
    for (Var r = 0; r < m && replacement[m] == make_lit(m); ++r) {
      if (replacement[r] != make_lit(r)) continue;  // merged away already
      for (int phase = 0; phase < 2 && replacement[m] == make_lit(m);
           ++phase) {
        if (stop && stop()) return aig.substitute(replacement);
        PairVerdict verdict = sat::prove_pair(
            solver, sat::lit_to_sat(smap, make_lit(r)),
            sat::lit_to_sat(smap, make_lit(m, phase != 0)),
            params.conflict_limit, stats.sat_calls);
        if (verdict == PairVerdict::kEqual) {
          ++stats.proved;
          replacement[m] = make_lit(r, phase != 0);
        } else if (verdict == PairVerdict::kUndecided) {
          ++stats.undecided;
        } else {
          ++stats.refuted;
        }
      }
    }
  }
  return aig.substitute(replacement);
}

}  // namespace

Aig fraig(const Aig& aig, const FraigParams& params, FraigStats* stats,
          const std::function<bool()>& stop) {
  FraigStats local;
  FraigStats& s = stats != nullptr ? *stats : local;
  s = FraigStats{};
  s.ands_before = aig.num_ands();
  Aig out = params.use_simulation ? sweep_guided(aig, params, s, stop)
                                  : sweep_naive(aig, params, s, stop);
  s.ands_after = out.num_ands();
  return out;
}

}  // namespace emorphic
