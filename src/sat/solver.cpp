#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "check/check.hpp"
#include "util/timer.hpp"

namespace emorphic::sat {

namespace {

/// Luby restart sequence (1,1,2,1,1,2,4,...) — MiniSat's formulation.
std::uint64_t luby(std::uint64_t i) {
  std::uint64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return 1ull << seq;
}

}  // namespace

SatVar Solver::new_vars(std::uint32_t n) {
  SatVar first = num_vars();
  for (std::uint32_t i = 0; i < n; ++i) {
    lit_val_.push_back(kUndef);
    lit_val_.push_back(kUndef);
    saved_phase_.push_back(kTrue);  // first decision on a var: positive
    reason_.push_back(kNoReason);
    level_.push_back(0);
    activity_.push_back(0.0);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_pos_.push_back(-1);
    heap_insert(first + i);
    seen_.push_back(0);
  }
  // Decision levels range over [0, num_vars]; size the LBD stamp array once
  // here so the conflict loop never allocates.
  lbd_marks_.resize(num_vars() + 1, 0);
  return first;
}

void Solver::heap_sift_up(std::size_t i) {
  SatVar v = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::int32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  SatVar v = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::int32_t>(i);
}

void Solver::heap_insert(SatVar v) {
  if (heap_pos_[v] >= 0) return;
  heap_.push_back(v);
  heap_pos_[v] = static_cast<std::int32_t>(heap_.size() - 1);
  heap_sift_up(heap_.size() - 1);
}

SatVar Solver::heap_pop() {
  SatVar top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

Solver::CRef Solver::alloc_clause(const SatLit* first, std::size_t n,
                                  bool learned, std::uint32_t lbd) {
  const std::size_t c = arena_.size();
  // Bit 0 of a watch holds the binary tag, so references stay below 2^31.
  if (c + kHeaderWords + n > 0x80000000u) {
    throw std::length_error("sat: clause arena exceeds 2^31 words");
  }
  arena_.push_back(static_cast<std::uint32_t>(n));
  arena_.push_back((lbd << kLbdShift) | (learned ? kLearned : 0));
  arena_.insert(arena_.end(), first, first + n);
  return static_cast<CRef>(c);
}

void Solver::add_clause(const SatLit* first, const SatLit* last) {
  if (unsat_) return;
  // A budget-limited solve() returns mid-search; clauses join at level 0.
  backtrack(0);
  // Normalize in reused scratch: drop duplicates and satisfied-at-level-0
  // literals (the caller's range is copied, so no aliasing hazards).
  add_scratch_.assign(first, last);
  std::sort(add_scratch_.begin(), add_scratch_.end());
  add_scratch_.erase(std::unique(add_scratch_.begin(), add_scratch_.end()),
                     add_scratch_.end());
  // Tautology: l and sat_neg(l) are numerically adjacent (2v, 2v+1), so
  // after sort+unique a complementary pair sits next to each other.
  for (std::size_t i = 0; i + 1 < add_scratch_.size(); ++i) {
    if (sat_neg(add_scratch_[i]) == add_scratch_[i + 1]) return;
  }
  std::size_t kept = 0;
  for (SatLit l : add_scratch_) {
    std::uint8_t v = value(l);
    if (v == kTrue && level_[sat_var(l)] == 0) return;  // already satisfied
    if (v == kFalse && level_[sat_var(l)] == 0) continue;  // falsified forever
    add_scratch_[kept++] = l;
  }
  if (kept == 0) {
    unsat_ = true;
    return;
  }
  if (kept == 1) {
    if (!enqueue(add_scratch_[0], kNoReason)) unsat_ = true;
    if (propagate() != kNoReason) unsat_ = true;
    return;
  }
  attach(alloc_clause(add_scratch_.data(), kept, false, 0));
}

void Solver::attach(CRef c) {
  const SatLit* cl = clause_lits(c);
  const std::uint32_t ref = (c << 1) | (clause_size(c) == 2 ? 1u : 0u);
  watches_[sat_neg(cl[0])].push_back(Watch{ref, cl[1]});
  watches_[sat_neg(cl[1])].push_back(Watch{ref, cl[0]});
}

bool Solver::enqueue(SatLit lit, CRef reason) {
  std::uint8_t v = value(lit);
  if (v != kUndef) return v == kTrue;
  assign(lit, reason);
  return true;
}

Solver::CRef Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const SatLit lit = trail_[qhead_++];
    const SatLit falsified = sat_neg(lit);
    ++stats_.propagations;
    // Compact the watch list in place: `i` reads, `j` writes back the
    // watches that stay. No push below targets this list: a replacement
    // watch is never on a false literal, and `falsified` is false.
    std::vector<Watch>& watch_list = watches_[lit];
    Watch* i = watch_list.data();
    Watch* j = i;
    Watch* const end = i + watch_list.size();
    while (i != end) {
      const Watch w = *i++;
      const std::uint8_t blocker = value(w.blocker);
      if (blocker == kTrue) {
        *j++ = w;
        continue;
      }
      const CRef c = watch_cref(w);
      SatLit* cl = clause_lits(c);
      if (watch_binary(w)) {
        // The blocker is the other literal: unit or conflicting, decided
        // without reading the clause.
        *j++ = w;
        if (blocker == kUndef) {
          assign(w.blocker, c);
          continue;
        }
        if (cl[0] == falsified) std::swap(cl[0], cl[1]);
      } else {
        // Ensure the falsified literal is cl[1].
        if (cl[0] == falsified) std::swap(cl[0], cl[1]);
        if (value(cl[0]) == kTrue) {
          *j++ = Watch{w.ref, cl[0]};
          continue;
        }
        // Look for a new literal to watch.
        const std::uint32_t size = clause_size(c);
        std::uint32_t k = 2;
        while (k < size && value(cl[k]) == kFalse) ++k;
        if (k < size) {
          std::swap(cl[1], cl[k]);
          watches_[sat_neg(cl[1])].push_back(Watch{w.ref, cl[0]});
          continue;
        }
        // Unit or conflicting.
        *j++ = w;
        if (value(cl[0]) == kUndef) {
          assign(cl[0], c);
          continue;
        }
      }
      // Conflict: keep the remaining watches and report.
      while (i != end) *j++ = *i++;
      watch_list.resize(static_cast<std::size_t>(j - watch_list.data()));
      qhead_ = trail_.size();
      return c;
    }
    watch_list.resize(static_cast<std::size_t>(j - watch_list.data()));
  }
  return kNoReason;
}

void Solver::bump(SatVar v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    // Rescaling preserves the ordering, so the heap stays valid.
  }
  if (heap_pos_[v] >= 0) heap_sift_up(static_cast<std::size_t>(heap_pos_[v]));
}

void Solver::analyze(CRef conflict, std::vector<SatLit>& learnt,
                     std::uint32_t& backtrack_level) {
  learnt.clear();
  learnt.push_back(0);  // slot for the asserting literal
  // `seen_` is a member: zeroed vars are recorded in seen_touched_ and
  // unmarked at the end, so the per-conflict cost is O(marked), not
  // O(num_vars) worth of allocation + memset.
  seen_touched_.clear();
  std::uint32_t counter = 0;
  SatLit p = 0;
  bool have_p = false;
  std::size_t index = trail_.size();
  std::uint32_t current_level = static_cast<std::uint32_t>(trail_lim_.size());

  CRef reason_clause = conflict;
  for (;;) {
    assert(reason_clause != kNoReason);
    const SatLit* cl = clause_lits(reason_clause);
    const std::uint32_t size = clause_size(reason_clause);
    for (std::uint32_t j = 0; j < size; ++j) {
      SatLit q = cl[j];
      if (have_p && q == p) continue;  // skip the implied literal itself
      SatVar v = sat_var(q);
      if (seen_[v] != 0 || level_[v] == 0) continue;
      seen_[v] = 1;
      seen_touched_.push_back(v);
      bump(v);
      if (level_[v] >= current_level) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Select the next literal from the trail. `seen_` stays set for the
    // whole analysis so a variable can never re-enter the learnt clause
    // through a later reason (the clause must stay asserting).
    while (seen_[sat_var(trail_[index - 1])] == 0) --index;
    --index;
    p = trail_[index];
    have_p = true;
    reason_clause = reason_[sat_var(p)];
    if (--counter == 0) break;
  }
  learnt[0] = sat_neg(p);
  for (SatVar v : seen_touched_) seen_[v] = 0;

  backtrack_level = 0;
  if (learnt.size() > 1) {
    // Second-highest decision level in the clause; move it to position 1.
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[sat_var(learnt[i])] > level_[sat_var(learnt[max_i])]) max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = level_[sat_var(learnt[1])];
  }
}

void Solver::backtrack(std::uint32_t target) {
  if (trail_lim_.size() <= target) return;
  std::uint32_t boundary = trail_lim_[target];
  for (std::size_t i = trail_.size(); i > boundary; --i) {
    const SatLit lit = trail_[i - 1];
    const SatVar v = sat_var(lit);
    saved_phase_[v] = sat_sign(lit) ? kFalse : kTrue;
    lit_val_[lit] = kUndef;
    lit_val_[sat_neg(lit)] = kUndef;
    reason_[v] = kNoReason;
    heap_insert(v);
  }
  trail_.resize(boundary);
  trail_lim_.resize(target);
  qhead_ = trail_.size();
}

void Solver::reduce_learnt_db() {
  // Glue-based reduction at decision level 0: drop the worse half of the
  // learnt clauses (high LBD, then long), keeping anything that is
  // currently a reason. Watches are rebuilt from scratch afterwards —
  // simple and safe, and reduction is rare enough that it's cheap.
  assert(trail_lim_.empty());
  for (SatLit lit : trail_) {
    const CRef r = reason_[sat_var(lit)];
    if (r != kNoReason) arena_[r + 1] |= kReason;
  }
  reduce_order_.clear();
  for (CRef c = 0; c < arena_.size(); c += kHeaderWords + clause_size(c)) {
    const std::uint32_t flags = clause_flags(c);
    if ((flags & kLearned) != 0 && (flags & kReason) == 0 &&
        clause_size(c) > 2) {
      reduce_order_.push_back(c);
    }
  }
  std::sort(reduce_order_.begin(), reduce_order_.end(), [&](CRef a, CRef b) {
    if (clause_lbd(a) != clause_lbd(b)) return clause_lbd(a) > clause_lbd(b);
    return clause_size(a) > clause_size(b);
  });
  const std::size_t to_delete = reduce_order_.size() / 2;
  for (std::size_t i = 0; i < to_delete; ++i) {
    arena_[reduce_order_[i] + 1] |= kDeleted;
  }
  // Compact the arena in one forward pass: every surviving clause slides
  // down over the holes, keeping its order, and a reason moves its trail
  // literal's reference along. That literal is the clause's one true
  // literal (all others are false), and it sits in cl[0] or cl[1].
  CRef write = 0;
  for (CRef c = 0; c < arena_.size();) {
    const std::uint32_t words = kHeaderWords + clause_size(c);
    const std::uint32_t flags = clause_flags(c);
    if ((flags & kDeleted) == 0) {
      if ((flags & kReason) != 0) {
        const SatLit* cl = clause_lits(c);
        const SatLit implied = value(cl[0]) == kTrue ? cl[0] : cl[1];
        reason_[sat_var(implied)] = write;
      }
      std::memmove(arena_.data() + write, arena_.data() + c,
                   words * sizeof(std::uint32_t));
      arena_[write + 1] = flags & ~kReason;
      write += words;
    }
    c += words;
  }
  arena_.resize(write);
  // Rebuild every watch list.
  for (auto& w : watches_) w.clear();
  for (CRef c = 0; c < arena_.size(); c += kHeaderWords + clause_size(c)) {
    attach(c);
  }
  EM_CHECK_EXPENSIVE(check_invariants());
}

SatLit Solver::pick_branch() {
  SatVar best = 0;
  while (!heap_.empty()) {
    best = heap_pop();
    if (value(sat_lit(best)) == kUndef) break;
  }
  // saved_phase_ holds the value the var last had; pick the same polarity.
  return sat_lit(best, saved_phase_[best] != kTrue);
}

void Solver::analyze_final(SatLit p) {
  // `p` is an assumption found falsified by the current (assumption-level)
  // trail. Walk the implication graph of ~p back to the assumptions that
  // forced it: those, plus p itself, are the failed set.
  failed_.clear();
  failed_.push_back(p);
  if (trail_lim_.empty()) return;  // implied at level 0: {p} alone suffices
  seen_touched_.clear();
  seen_[sat_var(p)] = 1;
  seen_touched_.push_back(sat_var(p));
  for (std::size_t i = trail_.size(); i-- > trail_lim_[0];) {
    SatVar v = sat_var(trail_[i]);
    if (seen_[v] == 0) continue;
    const CRef r = reason_[v];
    if (r == kNoReason) {
      // A decision above level 0 during assumption re-establishment is
      // always an assumed literal.
      if (trail_[i] != p) failed_.push_back(trail_[i]);
    } else {
      const SatLit* cl = clause_lits(r);
      for (std::uint32_t j = 0; j < clause_size(r); ++j) {
        SatVar lv = sat_var(cl[j]);
        if (level_[lv] > 0 && seen_[lv] == 0) {
          seen_[lv] = 1;
          seen_touched_.push_back(lv);
        }
      }
    }
  }
  for (SatVar v : seen_touched_) seen_[v] = 0;
}

std::string Solver::check_invariants() const {
  auto at = [](const char* what, std::size_t where) {
    return std::string(what) + " at " + std::to_string(where);
  };
  // 1. The headers tile the arena exactly. `header` marks every clause
  //    start; `watched` collects one bit per watched literal slot.
  std::vector<std::uint8_t> header(arena_.size(), 0);
  std::vector<std::uint8_t> watched(arena_.size(), 0);
  CRef c = 0;
  while (c < arena_.size()) {
    if (arena_.size() - c < kHeaderWords) return at("sat: truncated header", c);
    const std::uint32_t size = clause_size(c);
    if (size < 2) return at("sat: clause shorter than 2", c);
    if (arena_.size() - c - kHeaderWords < size) {
      return at("sat: clause overruns the arena", c);
    }
    if ((clause_flags(c) & (kReason | kDeleted)) != 0) {
      return at("sat: stale reduction mark", c);
    }
    header[c] = 1;
    c += kHeaderWords + size;
  }
  // 2. Each clause is watched exactly once by ~cl[0] and once by ~cl[1]; a
  //    binary clause's watch is tagged and blocks on the other literal.
  for (SatLit l = 0; l < watches_.size(); ++l) {
    for (const Watch& w : watches_[l]) {
      const CRef wc = watch_cref(w);
      if (wc >= arena_.size() || header[wc] == 0) {
        return at("sat: watch of a non-clause, literal", l);
      }
      const SatLit* cl = clause_lits(wc);
      const bool binary = clause_size(wc) == 2;
      if (watch_binary(w) != binary) return at("sat: wrong binary tag", wc);
      const int slot = sat_neg(l) == cl[0] ? 0 : sat_neg(l) == cl[1] ? 1 : -1;
      if (slot < 0) return at("sat: watch on an unwatched literal", wc);
      if ((watched[wc] & (1u << slot)) != 0) {
        return at("sat: clause watched twice", wc);
      }
      watched[wc] |= static_cast<std::uint8_t>(1u << slot);
      if (binary && w.blocker != cl[1 - slot]) {
        return at("sat: binary watch blocks on a foreign literal", wc);
      }
    }
  }
  for (c = 0; c < arena_.size(); c += kHeaderWords + clause_size(c)) {
    if (watched[c] != 3) return at("sat: clause not watched twice", c);
  }
  // 3. Every reason is a live clause holding its trail literal, with every
  //    other literal false.
  for (SatLit lit : trail_) {
    const CRef r = reason_[sat_var(lit)];
    if (r == kNoReason) continue;
    if (r >= arena_.size() || header[r] == 0) {
      return at("sat: reason is not a clause, var", sat_var(lit));
    }
    const SatLit* cl = clause_lits(r);
    bool holds = false;
    for (std::uint32_t j = 0; j < clause_size(r); ++j) {
      if (cl[j] == lit) {
        holds = true;
      } else if (value(cl[j]) != kFalse) {
        return at("sat: reason with a non-false side literal, var",
                  sat_var(lit));
      }
    }
    if (!holds) return at("sat: reason lacks its literal, var", sat_var(lit));
  }
  return {};
}

SatResult Solver::solve(const std::vector<SatLit>& assumptions,
                        std::uint64_t conflict_limit, double time_limit_s,
                        const std::function<bool()>& stop) {
  failed_.clear();
  if (unsat_) return SatResult::kUnsat;
  backtrack(0);
  if (propagate() != kNoReason) {
    unsat_ = true;
    return SatResult::kUnsat;
  }

  Timer timer;
  std::uint64_t conflicts_call = 0;  // conflict_limit is per solve() call
  std::uint64_t conflicts_here = 0;
  std::uint64_t restart_index = 0;
  std::uint64_t restart_budget = 64 * luby(restart_index);
  std::uint64_t live_learnt = 0;
  std::uint64_t max_learnt = 8000;

  for (;;) {
    const CRef conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_call;
      ++conflicts_here;
      if (trail_lim_.empty()) {
        unsat_ = true;
        return SatResult::kUnsat;
      }
      std::vector<SatLit>& learnt = learnt_scratch_;
      std::uint32_t bt_level = 0;
      analyze(conflict, learnt, bt_level);
      // Backtrack to the asserting level even when that unassigns
      // assumptions — the decision loop below re-establishes them, and an
      // assumption the learnt clause now falsifies surfaces there as an
      // assumptions-only kUnsat. (Clamping to the assumption prefix instead
      // would try to assert a literal that is already falsified at that
      // level and misreport the conflict as a permanent one.)
      backtrack(bt_level);
      if (learnt.size() == 1) {
        backtrack(0);
        if (!enqueue(learnt[0], kNoReason)) {
          unsat_ = true;
          return SatResult::kUnsat;
        }
        // Re-assert assumptions on the next loop iterations.
      } else {
        // LBD ("glue"): number of distinct decision levels in the clause,
        // counted with a stamped per-level mark array — no per-conflict
        // hash set.
        ++lbd_stamp_;
        std::uint32_t distinct = 0;
        for (SatLit l : learnt) {
          std::uint32_t lvl = level_[sat_var(l)];
          if (lbd_marks_[lvl] != lbd_stamp_) {
            lbd_marks_[lvl] = lbd_stamp_;
            ++distinct;
          }
        }
        const CRef c =
            alloc_clause(learnt.data(), learnt.size(), true, distinct);
        ++stats_.learned;
        ++live_learnt;
        attach(c);
        if (!enqueue(learnt[0], c)) {
          unsat_ = true;
          return SatResult::kUnsat;
        }
      }
      decay();
      if (conflict_limit > 0 && conflicts_call >= conflict_limit) {
        return SatResult::kUndecided;
      }
      if (conflicts_call % kStopPollConflicts == 0 &&
          ((time_limit_s > 0.0 && timer.seconds() > time_limit_s) ||
           (stop && stop()))) {
        return SatResult::kUndecided;
      }
      if (conflicts_here >= restart_budget) {
        ++stats_.restarts;
        conflicts_here = 0;
        restart_budget = 64 * luby(++restart_index);
        backtrack(0);
        if (live_learnt > max_learnt) {
          reduce_learnt_db();
          live_learnt /= 2;
          max_learnt = max_learnt + max_learnt / 3;
        }
      }
      continue;
    }

    // Re-establish assumptions that a backtrack/restart dropped.
    if (trail_lim_.size() < assumptions.size()) {
      SatLit a = assumptions[trail_lim_.size()];
      std::uint8_t v = value(a);
      if (v == kFalse) {
        // UNSAT under the assumptions only: record which of them the
        // refutation used and leave the solver reusable (ok() stays true).
        analyze_final(a);
        backtrack(0);
        return SatResult::kUnsat;
      }
      trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      if (v == kUndef) assign(a, kNoReason);
      continue;
    }

    // All variables assigned? (the trail holds exactly the assigned vars)
    if (trail_.size() == num_vars()) {
      model_.assign(num_vars(), false);
      for (SatVar v = 0; v < num_vars(); ++v) {
        model_[v] = value(sat_lit(v)) == kTrue;
      }
      backtrack(0);
      return SatResult::kSat;
    }

    ++stats_.decisions;
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(pick_branch(), kNoReason);
  }
}

}  // namespace emorphic::sat
