#pragma once
// Boolean matching of cut functions against library cells via NPN
// canonicalization. Preprocessing canonicalizes every cell once; at mapping
// time each cut's canonical form is computed (with memoization — cut
// functions repeat heavily) and the stored transforms are composed to give,
// for every matching cell, the pin-to-leaf assignment, which leaf phases
// are needed, and whether the gate output implements the complement.
//
// One Matcher instance is meant to be shared: the precomputed cell tables
// are immutable after construction and the match cache is striped behind
// per-shard mutexes, so a single matcher serves every SA chain and every
// service worker concurrently instead of being rebuilt per evaluation.
// Cache entries are keyed by (function, leaf count) — match validity
// depends on the leaf count (a cell pin must not read a padding variable),
// so the same padded table queried with different cut sizes yields
// different match lists.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "aig/truth.hpp"
#include "mapper/cell_library.hpp"

namespace emorphic {

/// A concrete way to implement a cut function with a library cell.
struct CellMatch {
  /// Library cell id (index into CellLibrary::cells()).
  std::uint32_t cell = 0;
  /// pin_leaf[j]: index (into the cut's leaves) feeding cell pin j.
  std::array<std::uint8_t, kMaxCellPins> pin_leaf{{0, 0, 0, 0}};
  /// pin_compl bit j: pin j needs the *complement* of that leaf.
  std::uint8_t pin_compl = 0;
  /// The gate computes the complement of the cut function.
  bool output_compl = false;
};

class Matcher {
 public:
  explicit Matcher(const CellLibrary& library);

  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;

  /// All cell implementations of `tt` (a function of `num_leaves` <=
  /// kMaxCellPins variables, padded into the 4-variable NPN domain).
  /// Thread-safe; the returned reference stays valid for the lifetime of
  /// the matcher.
  const std::vector<CellMatch>& match(Tt tt, unsigned num_leaves) const;

  const CellLibrary& library() const { return library_; }

 private:
  /// canonical tt -> matches expressed against the canonical form
  struct CellEntry {
    std::uint32_t cell;
    NpnTransform transform;  // canon == npn_apply(cell_tt, transform)
  };

  std::vector<CellMatch> compute_matches(Tt tt, unsigned num_leaves) const;

  const CellLibrary& library_;
  /// Immutable after construction; safe for lock-free concurrent reads.
  std::unordered_map<Tt, std::vector<CellEntry>> canon_cells_;

  // Striped match cache. Values are heap-allocated and never mutated after
  // insertion, so returned references survive rehashing and concurrent
  // inserts into the same shard.
  static constexpr std::size_t kNumShards = 16;
  struct Shard {
    std::mutex mutex;
    std::unordered_map<std::uint32_t,
                       std::unique_ptr<const std::vector<CellMatch>>>
        entries;
  };
  mutable std::array<Shard, kNumShards> shards_;
};

}  // namespace emorphic
