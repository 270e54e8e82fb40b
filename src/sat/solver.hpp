#pragma once
// A compact CDCL SAT solver: two-watched-literal propagation, first-UIP
// conflict analysis with clause learning, VSIDS-style activities, phase
// saving and Luby restarts. It backs the combinational equivalence checker
// (`cec`) that validates every E-morphic result, as the paper does with
// ABC's `cec` (Sec. IV-A).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace emorphic::sat {

using SatVar = std::uint32_t;
/// Literal encoding mirrors the AIG: 2*var + sign.
using SatLit = std::uint32_t;

inline constexpr SatLit sat_lit(SatVar v, bool negated = false) {
  return (v << 1) | static_cast<SatLit>(negated);
}
inline constexpr SatVar sat_var(SatLit l) { return l >> 1; }
inline constexpr bool sat_sign(SatLit l) { return (l & 1) != 0; }
inline constexpr SatLit sat_neg(SatLit l) { return l ^ 1; }

enum class SatResult { kSat, kUnsat, kUndecided };

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned = 0;

  bool operator==(const SolverStats&) const = default;
};

class Solver {
 public:
  /// Conflicts between two polls of solve()'s time limit and stop
  /// predicate: a stop ends a solve within this many conflicts.
  static constexpr std::uint64_t kStopPollConflicts = 1024;

  /// Create `n` fresh variables; returns the first.
  SatVar new_vars(std::uint32_t n = 1);
  std::uint32_t num_vars() const { return static_cast<std::uint32_t>(level_.size()); }

  /// Add a clause (empty clause makes the instance trivially UNSAT). The
  /// literals are copied; the range must not alias solver-internal storage.
  void add_clause(const SatLit* first, const SatLit* last);
  void add_clause(const std::vector<SatLit>& lits) {
    add_clause(lits.data(), lits.data() + lits.size());
  }
  void add_unit(SatLit a) { add_clause(&a, &a + 1); }
  void add_binary(SatLit a, SatLit b) {
    const SatLit lits[2] = {a, b};
    add_clause(lits, lits + 2);
  }
  void add_ternary(SatLit a, SatLit b, SatLit c) {
    const SatLit lits[3] = {a, b, c};
    add_clause(lits, lits + 3);
  }

  /// Solve under optional assumptions. `conflict_limit` 0 = no limit;
  /// exceeding it within this call returns kUndecided (the cec/fraig effort
  /// knob — the budget is per query, not per solver lifetime). A positive
  /// `time_limit_s` bounds wall-clock time the same way, and so does `stop`
  /// returning true. Both are polled every kStopPollConflicts conflicts.
  ///
  /// The solver is incremental: clauses may be added between calls and the
  /// learnt-clause database carries over, so repeated queries over one CNF
  /// (the fraig/cec pattern) get cheaper as the solver warms up. A kUnsat
  /// caused by the assumptions does not poison the solver — dropping the
  /// offending assumption makes the instance solvable again; only a kUnsat
  /// with no assumptions involved is permanent (see ok()).
  SatResult solve(const std::vector<SatLit>& assumptions = {},
                  std::uint64_t conflict_limit = 0,
                  double time_limit_s = 0.0,
                  const std::function<bool()>& stop = {});

  /// False once the clause database itself is contradictory (UNSAT without
  /// any assumptions): every further solve() returns kUnsat immediately.
  /// Stays true after an assumptions-only kUnsat.
  bool ok() const { return !unsat_; }

  /// After solve() returned kUnsat *because of the assumptions*: the subset
  /// of the assumption literals the refutation actually used (MiniSat's
  /// final conflict analysis). Empty when the database is unsat outright.
  const std::vector<SatLit>& failed_assumptions() const { return failed_; }

  /// Model access after kSat.
  bool model_value(SatVar v) const { return model_[v]; }

  const SolverStats& stats() const { return stats_; }

  /// Validate the clause arena, the watch lists and the trail's reasons:
  /// the clause headers tile the arena; each clause is watched once by the
  /// negation of each of its first two literals, a binary one through a
  /// tagged watch; each reason holds its trail literal and all its other
  /// literals are false. Empty when consistent (the check/validators.hpp
  /// convention); runs after every learnt-database reduction under
  /// EMORPHIC_CHECKS.
  std::string check_invariants() const;

 private:
  /// A clause reference: the arena offset of the clause's header.
  using CRef = std::uint32_t;
  static constexpr CRef kNoReason = 0xffffffffu;
  enum : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

  // Clause layout in `arena_` (MiniSat's region allocator, with the header
  // inline): word 0 is the size, word 1 the flags and the LBD ("glue": the
  // number of decision levels in the clause when it was learnt), then the
  // literals. A reference is the header's offset, so reading a clause is
  // one cache line, not a header table plus a literal arena.
  static constexpr std::uint32_t kHeaderWords = 2;
  static constexpr std::uint32_t kLearned = 1;  // flag bits of word 1
  static constexpr std::uint32_t kReason = 2;   // reduce_learnt_db's mark
  static constexpr std::uint32_t kDeleted = 4;  // reduce_learnt_db's victim
  static constexpr std::uint32_t kLbdShift = 3;

  /// A watch for the literal whose list holds it. `ref` is the clause's
  /// CRef shifted left by one, with bit 0 set for a binary clause: then the
  /// blocker is the clause's other literal, and propagation decides the
  /// clause from the watch alone.
  struct Watch {
    std::uint32_t ref;
    SatLit blocker;
  };
  static constexpr CRef watch_cref(Watch w) { return w.ref >> 1; }
  static constexpr bool watch_binary(Watch w) { return (w.ref & 1) != 0; }

  std::uint32_t clause_size(CRef c) const { return arena_[c]; }
  std::uint32_t clause_flags(CRef c) const { return arena_[c + 1]; }
  std::uint32_t clause_lbd(CRef c) const { return arena_[c + 1] >> kLbdShift; }
  SatLit* clause_lits(CRef c) { return arena_.data() + c + kHeaderWords; }
  const SatLit* clause_lits(CRef c) const {
    return arena_.data() + c + kHeaderWords;
  }
  /// Append a clause to the arena and return its reference.
  CRef alloc_clause(const SatLit* first, std::size_t n, bool learned,
                    std::uint32_t lbd);
  void attach(CRef c);

  std::uint8_t value(SatLit l) const { return lit_val_[l]; }
  /// Assign an unassigned literal true.
  void assign(SatLit lit, CRef reason) {
    lit_val_[lit] = kTrue;
    lit_val_[sat_neg(lit)] = kFalse;
    reason_[sat_var(lit)] = reason;
    level_[sat_var(lit)] = static_cast<std::uint32_t>(trail_lim_.size());
    trail_.push_back(lit);
  }
  bool enqueue(SatLit lit, CRef reason);
  CRef propagate();  // returns the conflicting clause or kNoReason
  void analyze(CRef conflict, std::vector<SatLit>& learnt,
               std::uint32_t& backtrack_level);
  void analyze_final(SatLit p);
  void reduce_learnt_db();
  void backtrack(std::uint32_t level);
  SatLit pick_branch();
  void bump(SatVar v);
  void decay() { var_inc_ /= 0.95; }

  std::vector<std::uint32_t> arena_;         // every clause, header first
  std::vector<std::vector<Watch>> watches_;  // indexed by literal
  std::vector<std::uint8_t> lit_val_;        // per literal: kFalse/kTrue/kUndef
  std::vector<std::uint8_t> saved_phase_;    // per var: value when unassigned
  std::vector<CRef> reason_;                 // per var; kNoReason if none
  std::vector<std::uint32_t> level_;
  std::vector<SatLit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<bool> model_;
  std::vector<SatLit> failed_;  // see failed_assumptions()
  bool unsat_ = false;
  SolverStats stats_;

  // Reused scratch (cleared, never reallocated per call) so the conflict
  // loop — the solver's hot path — does no allocator traffic once warm:
  std::vector<std::uint8_t> seen_;      // per-var mark for analyze()
  std::vector<SatVar> seen_touched_;    // vars marked, to unmark afterwards
  std::vector<SatLit> learnt_scratch_;  // the clause under construction
  std::vector<SatLit> add_scratch_;     // add_clause normalization buffer
  std::vector<std::uint32_t> lbd_marks_;  // per-level stamp for LBD counting
  std::uint32_t lbd_stamp_ = 0;
  std::vector<CRef> reduce_order_;  // reduce_learnt_db: sort buffer

  // Indexed max-heap over variable activities (MiniSat's order heap):
  // decisions pop the most active unassigned variable in O(log n).
  std::vector<SatVar> heap_;            // heap of variables
  std::vector<std::int32_t> heap_pos_;  // var -> index in heap_, -1 if absent
  void heap_insert(SatVar v);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  SatVar heap_pop();
};

}  // namespace emorphic::sat
