#pragma once
// Circuit I/O:
//  * the "equation format" the paper's pre/post-processing steps speak
//    (ABC-style: `INORDER`/`OUTORDER` declarations plus one assignment per
//    line over !, &, |, ^ and parentheses);
//  * ASCII AIGER (`aag`), the standard AIG interchange format.

#include <string>

#include "aig/aig.hpp"

namespace emorphic {

/// Serialize to equation format. Every AND node becomes one assignment.
std::string write_equations(const Aig& aig);

/// Parse equation format; throws std::runtime_error on malformed input.
/// Supports nested parentheses, n-ary & | ^, prefix !, constants 0/1.
Aig read_equations(const std::string& text);

/// Serialize to ASCII AIGER ("aag"). Combinational only.
std::string write_aiger(const Aig& aig);

/// Parse ASCII AIGER, symbol table included (PI/PO names survive a round
/// trip); throws std::runtime_error on malformed input — a bad symbol line
/// too — or latches.
Aig read_aiger(const std::string& text);

/// Serialize to binary AIGER ("aig"): inputs implicit, AND fanins
/// delta-encoded as LEB128 varints — roughly 5-10x smaller than "aag" on
/// large circuits, which is what the partition checkpoints and the scaled
/// benchmarks store. PI/PO names are written to the symbol table, and
/// both readers parse it with the same code. Combinational only.
///
/// The writer renumbers variables PIs-first then ANDs in ascending index
/// order, so write ∘ read is a fixed point: re-serializing a parsed circuit
/// reproduces the bytes exactly. partition_optimize leans on this to make
/// checkpoint-resumed runs bit-identical to uninterrupted ones.
std::string write_aiger_binary(const Aig& aig);

/// Parse binary AIGER; throws std::runtime_error on malformed input —
/// truncated bytes, wrong magic, bad counts, out-of-range deltas — and
/// never crashes or allocates off unvalidated counts.
Aig read_aiger_binary(const std::string& bytes);

}  // namespace emorphic
