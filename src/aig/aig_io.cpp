#include "aig/aig_io.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/checkpoint.hpp"

namespace emorphic {

// ---------------------------------------------------------------------------
// Equation format
// ---------------------------------------------------------------------------

std::string write_equations(const Aig& aig) {
  std::ostringstream out;
  out << "INORDER =";
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    out << ' ' << aig.pi_name(i);
  }
  out << ";\n";
  out << "OUTORDER =";
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    out << ' ' << aig.po_name(i);
  }
  out << ";\n";

  auto put_lit = [&](Lit l) {
    Var v = lit_var(l);
    if (aig.is_const0(v)) {
      out << (lit_is_compl(l) ? '1' : '0');
      return;
    }
    if (lit_is_compl(l)) out << '!';
    if (aig.is_pi(v)) {
      out << aig.pi_name(aig.pi_index(v));
    } else {
      out << 'n' << v;
    }
  };

  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) continue;
    out << 'n' << v << " = ";
    put_lit(aig.fanin0(v));
    out << " & ";
    put_lit(aig.fanin1(v));
    out << ";\n";
  }
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    out << aig.po_name(i) << " = ";
    put_lit(aig.po(i));
    out << ";\n";
  }
  return out.str();
}

namespace {

// Recursive-descent parser for the expression grammar:
//   expr   := term ( ('|' | '^') term )*
//   term   := factor ( '&' factor )*
//   factor := '!' factor | '(' expr ')' | name | '0' | '1'
class EquationParser {
 public:
  EquationParser(const std::string& text, Aig& aig) : text_(text), aig_(aig) {}

  void run() {
    while (skip_ws(), pos_ < text_.size()) {
      parse_statement();
    }
    // Resolve POs now that every name is defined.
    for (const auto& [name, index] : po_order_) {
      auto it = defs_.find(name);
      if (it == defs_.end()) {
        throw std::runtime_error("equation format: undefined output " + name);
      }
      aig_.set_po(index, it->second);
    }
  }

 private:
  void parse_statement() {
    std::string name = parse_name();
    skip_ws();
    expect('=');
    if (name == "INORDER") {
      while (skip_ws(), peek() != ';') {
        std::string pi = parse_name();
        Var v = aig_.add_pi(pi);
        defs_[pi] = make_lit(v);
      }
      expect(';');
    } else if (name == "OUTORDER") {
      while (skip_ws(), peek() != ';') {
        std::string po = parse_name();
        po_order_.emplace_back(po, aig_.add_po(kLitFalse, po));
      }
      expect(';');
    } else {
      Lit value = parse_expr();
      skip_ws();
      expect(';');
      defs_[name] = value;
    }
  }

  Lit parse_expr() {
    Lit acc = parse_term();
    for (;;) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '|') {
        ++pos_;
        acc = aig_.make_or(acc, parse_term());
      } else if (pos_ < text_.size() && text_[pos_] == '^') {
        ++pos_;
        acc = aig_.make_xor(acc, parse_term());
      } else {
        return acc;
      }
    }
  }

  Lit parse_term() {
    Lit acc = parse_factor();
    for (;;) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '&') {
        ++pos_;
        acc = aig_.make_and(acc, parse_factor());
      } else {
        return acc;
      }
    }
  }

  Lit parse_factor() {
    skip_ws();
    char c = peek();
    if (c == '!') {
      ++pos_;
      return lit_not(parse_factor());
    }
    if (c == '(') {
      ++pos_;
      Lit inner = parse_expr();
      skip_ws();
      expect(')');
      return inner;
    }
    std::string name = parse_name();
    if (name == "0") return kLitFalse;
    if (name == "1") return kLitTrue;
    auto it = defs_.find(name);
    if (it == defs_.end()) {
      throw std::runtime_error("equation format: undefined signal " + name);
    }
    return it->second;
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '[' || c == ']' || c == '.';
  }

  std::string parse_name() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() && is_name_char(text_[pos_])) ++pos_;
    if (pos_ == start) {
      throw std::runtime_error("equation format: expected name at offset " +
                               std::to_string(pos_));
    }
    return text_.substr(start, pos_ - start);
  }

  void skip_ws() {
    for (;;) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      // '#' comments to end of line
      if (pos_ < text_.size() && text_[pos_] == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      throw std::runtime_error("equation format: unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("equation format: expected '") + c +
                               "' at offset " + std::to_string(pos_));
    }
    ++pos_;
  }

  const std::string& text_;
  Aig& aig_;
  std::size_t pos_ = 0;
  std::unordered_map<std::string, Lit> defs_;
  std::vector<std::pair<std::string, std::uint32_t>> po_order_;
};

}  // namespace

Aig read_equations(const std::string& text) {
  Aig aig;
  EquationParser(text, aig).run();
  return aig;
}

// ---------------------------------------------------------------------------
// ASCII AIGER
// ---------------------------------------------------------------------------

namespace {

// AIGER numbering: PIs 1..I, then ANDs I+1..I+A in definition order. Our
// variable numbering is already topological, but PIs may interleave with
// ANDs, so both writers remap.
std::vector<std::uint32_t> aiger_numbering(const Aig& aig) {
  std::vector<std::uint32_t> var_to_aiger(aig.num_nodes(), 0);
  std::uint32_t next = 1;
  for (Var v : aig.pis()) var_to_aiger[v] = next++;
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (aig.is_and(v)) var_to_aiger[v] = next++;
  }
  return var_to_aiger;
}

std::uint64_t aiger_lit(const std::vector<std::uint32_t>& var_to_aiger,
                        Lit l) {
  return 2ull * var_to_aiger[lit_var(l)] + (lit_is_compl(l) ? 1u : 0u);
}

// Strict decimal parse of a whole token: nonempty, digits only, no overflow.
// `format` ("aiger" / "aiger binary") prefixes the error message.
std::uint64_t parse_u64(const std::string& token, const char* what,
                        const char* format) {
  std::uint64_t value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || token.empty()) {
    throw std::runtime_error(std::string(format) + ": malformed " + what +
                             " '" + token + "'");
  }
  return value;
}

// The symbol table both AIGER readers share: newline-terminated
// `i<k> name` / `o<k> name` lines from `pos` to the end of `text`, where a
// lone `c` line starts the comment section and ends the table. A malformed
// line or an index outside [0, pi_names.size()) / [0, po_names.size())
// throws std::runtime_error prefixed with `format`.
void read_symbol_table(const std::string& text, std::size_t pos,
                       const char* format, std::vector<std::string>& pi_names,
                       std::vector<std::string>& po_names) {
  const std::string prefix = std::string(format) + ": ";
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      throw std::runtime_error(prefix +
                               "truncated (no newline) in symbol section");
    }
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line == "c") break;  // comment section: ignore the rest
    std::size_t space = line.find(' ');
    if (line.empty() || (line[0] != 'i' && line[0] != 'o') ||
        space == std::string::npos) {
      throw std::runtime_error(prefix + "malformed symbol line '" + line +
                               "'");
    }
    std::uint64_t index =
        parse_u64(line.substr(1, space - 1), "symbol index", format);
    std::vector<std::string>& names = line[0] == 'i' ? pi_names : po_names;
    if (index >= names.size()) {
      throw std::runtime_error(prefix +
                               (line[0] == 'i' ? "input" : "output") +
                               " symbol index " + std::to_string(index) +
                               " out of range");
    }
    names[static_cast<std::size_t>(index)] = line.substr(space + 1);
  }
}

}  // namespace


std::string write_aiger(const Aig& aig) {
  const std::vector<std::uint32_t> var_to_aiger = aiger_numbering(aig);
  auto to_aiger_lit = [&](Lit l) { return aiger_lit(var_to_aiger, l); };

  std::ostringstream out;
  std::uint32_t m = aig.num_pis() + aig.num_ands();
  out << "aag " << m << ' ' << aig.num_pis() << " 0 " << aig.num_pos() << ' '
      << aig.num_ands() << "\n";
  for (Var v : aig.pis()) out << 2 * var_to_aiger[v] << "\n";
  for (Lit po : aig.pos()) out << to_aiger_lit(po) << "\n";
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) continue;
    out << 2 * var_to_aiger[v] << ' ' << to_aiger_lit(aig.fanin0(v)) << ' '
        << to_aiger_lit(aig.fanin1(v)) << "\n";
  }
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    out << 'i' << i << ' ' << aig.pi_name(i) << "\n";
  }
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    out << 'o' << i << ' ' << aig.po_name(i) << "\n";
  }
  return out.str();
}

Aig read_aiger(const std::string& text) {
  // Server-hardened parser: every malformed input — truncated header,
  // non-numeric tokens, out-of-range or odd literals, oversized declared
  // counts, literals used before definition — throws std::runtime_error.
  // One bad client request must never assert, allocate absurdly, or index
  // out of bounds.
  std::istringstream in(text);
  std::string magic;
  if (!(in >> magic)) throw std::runtime_error("aiger: empty input");
  if (magic != "aag") throw std::runtime_error("aiger: expected 'aag' header");
  std::uint64_t m = 0, i = 0, l = 0, o = 0, a = 0;
  if (!(in >> m >> i >> l >> o >> a)) {
    throw std::runtime_error("aiger: truncated or non-numeric header");
  }
  if (l != 0) throw std::runtime_error("aiger: latches not supported");
  if (i + a > m) {
    throw std::runtime_error(
        "aiger: header counts exceed declared maximum index");
  }
  // Every declared variable needs at least two characters of body text
  // ("0\n"), so declared counts beyond the input size are lies — reject
  // them before sizing any allocation off attacker-controlled numbers.
  if (m > text.size() || o > text.size()) {
    throw std::runtime_error("aiger: declared counts exceed input size");
  }

  // Structure is validated and staged first, then built after the symbol
  // table (which follows the AND section), so PIs carry their names from
  // construction. Staging grows with the parsed text, never with the
  // declared counts.
  const std::uint64_t max_lit = 2 * m + 1;
  std::vector<bool> defined(2 * (m + 1), false);
  defined[0] = defined[1] = true;

  auto read_lit = [&](const char* section) -> std::uint64_t {
    std::uint64_t lit = 0;
    if (!(in >> lit)) {
      throw std::runtime_error(std::string("aiger: truncated or non-numeric ") +
                               section + " section");
    }
    if (lit > max_lit) {
      throw std::runtime_error("aiger: literal " + std::to_string(lit) +
                               " out of range (max " +
                               std::to_string(max_lit) + ")");
    }
    return lit;
  };

  std::vector<std::uint64_t> pi_lits;
  for (std::uint64_t k = 0; k < i; ++k) {
    std::uint64_t lit = read_lit("input");
    if (lit < 2 || (lit & 1) != 0) {
      throw std::runtime_error("aiger: invalid input literal " +
                               std::to_string(lit));
    }
    if (defined[lit]) {
      throw std::runtime_error("aiger: literal " + std::to_string(lit) +
                               " defined twice");
    }
    pi_lits.push_back(lit);
    defined[lit] = defined[lit ^ 1] = true;
  }

  std::vector<std::uint64_t> po_lits;
  for (std::uint64_t k = 0; k < o; ++k) po_lits.push_back(read_lit("output"));

  std::vector<std::array<std::uint64_t, 3>> ands;
  for (std::uint64_t k = 0; k < a; ++k) {
    std::uint64_t out_lit = read_lit("and");
    std::uint64_t in0 = read_lit("and");
    std::uint64_t in1 = read_lit("and");
    if (out_lit < 2 || (out_lit & 1) != 0) {
      throw std::runtime_error("aiger: invalid AND output literal " +
                               std::to_string(out_lit));
    }
    if (defined[out_lit]) {
      throw std::runtime_error("aiger: literal " + std::to_string(out_lit) +
                               " defined twice");
    }
    if (!defined[in0] || !defined[in1]) {
      throw std::runtime_error(
          "aiger: AND fanin used before definition (literal " +
          std::to_string(!defined[in0] ? in0 : in1) + ")");
    }
    ands.push_back({out_lit, in0, in1});
    defined[out_lit] = defined[out_lit ^ 1] = true;
  }
  for (std::uint64_t lit : po_lits) {
    if (!defined[lit]) {
      throw std::runtime_error("aiger: undefined output literal " +
                               std::to_string(lit));
    }
  }

  // The symbol table starts on the line after the last token read (at the
  // end of the text when that token ended it).
  std::size_t pos = text.size();
  if (std::streamoff at = in.tellg(); at >= 0) {
    std::size_t nl = text.find('\n', static_cast<std::size_t>(at));
    if (nl != std::string::npos) pos = nl + 1;
  }
  std::vector<std::string> pi_names(pi_lits.size());
  std::vector<std::string> po_names(po_lits.size());
  read_symbol_table(text, pos, "aiger", pi_names, po_names);

  Aig aig;
  std::vector<Lit> map(2 * (m + 1), kLitFalse);
  map[1] = kLitTrue;
  for (std::size_t k = 0; k < pi_lits.size(); ++k) {
    Lit lit = make_lit(aig.add_pi(pi_names[k]));
    map[pi_lits[k]] = lit;
    map[pi_lits[k] ^ 1] = lit_not(lit);
  }
  for (const auto& [out_lit, in0, in1] : ands) {
    Lit f = aig.make_and(map[in0], map[in1]);
    map[out_lit] = f;
    map[out_lit ^ 1] = lit_not(f);
  }
  for (std::size_t k = 0; k < po_lits.size(); ++k) {
    aig.add_po(map[po_lits[k]], po_names[k]);
  }
  return aig;
}

// ---------------------------------------------------------------------------
// Binary AIGER
// ---------------------------------------------------------------------------

std::string write_aiger_binary(const Aig& aig) {
  // The binary format needs the contiguous numbering: inputs are implicit.
  const std::vector<std::uint32_t> var_to_aiger = aiger_numbering(aig);
  std::uint64_t m = aig.num_pis() + aig.num_ands();
  SnapshotWriter out;
  out.bytes("aig " + std::to_string(m) + ' ' + std::to_string(aig.num_pis()) +
            " 0 " + std::to_string(aig.num_pos()) + ' ' +
            std::to_string(aig.num_ands()) + '\n');
  for (Lit po : aig.pos()) {
    out.bytes(std::to_string(aiger_lit(var_to_aiger, po)) + '\n');
  }
  // AIGER's delta encoding is LEB128, the checkpoint varint.
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) continue;
    std::uint64_t lhs = 2ull * var_to_aiger[v];
    std::uint64_t rhs0 = aiger_lit(var_to_aiger, aig.fanin0(v));
    std::uint64_t rhs1 = aiger_lit(var_to_aiger, aig.fanin1(v));
    if (rhs0 < rhs1) std::swap(rhs0, rhs1);
    // Fanins remap below their AND (PIs <= I, earlier ANDs earlier), so
    // lhs > rhs0 >= rhs1 as the format requires.
    out.varint(lhs - rhs0);
    out.varint(rhs0 - rhs1);
  }
  for (std::uint32_t k = 0; k < aig.num_pis(); ++k) {
    out.bytes('i' + std::to_string(k) + ' ' + aig.pi_name(k) + '\n');
  }
  for (std::uint32_t k = 0; k < aig.num_pos(); ++k) {
    out.bytes('o' + std::to_string(k) + ' ' + aig.po_name(k) + '\n');
  }
  return out.take();
}

Aig read_aiger_binary(const std::string& bytes) {
  // Hardened to the same standard as read_aiger: truncation, fabricated
  // counts, malformed varints, and out-of-range deltas all throw
  // std::runtime_error before any allocation is sized off them. PI/PO
  // names survive the round trip, which partition checkpoints rely on.
  constexpr const char* kBinary = "aiger binary";
  std::size_t pos = 0;
  auto read_line = [&](const char* section) -> std::string {
    std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) {
      throw std::runtime_error(
          std::string("aiger binary: truncated (no newline) in ") + section);
    }
    std::string line = bytes.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };

  // Header: exactly "aig M I L O A".
  {
    std::istringstream hdr(read_line("header"));
    std::string tok;
    std::vector<std::string> tokens;
    while (hdr >> tok) tokens.push_back(tok);
    if (tokens.size() != 6 || tokens[0] != "aig") {
      throw std::runtime_error("aiger binary: expected 'aig M I L O A' header");
    }
    std::uint64_t m = parse_u64(tokens[1], "header count", kBinary);
    std::uint64_t i = parse_u64(tokens[2], "header count", kBinary);
    std::uint64_t l = parse_u64(tokens[3], "header count", kBinary);
    std::uint64_t o = parse_u64(tokens[4], "header count", kBinary);
    std::uint64_t a = parse_u64(tokens[5], "header count", kBinary);
    if (l != 0) throw std::runtime_error("aiger binary: latches not supported");
    if (m != i + a) {
      throw std::runtime_error(
          "aiger binary: variable numbering must be contiguous (M == I + A)");
    }
    // Our writer emits a symbol line per PI and every AND takes two delta
    // bytes, so declared counts beyond the input size are fabricated —
    // reject them before sizing any allocation off them.
    if (m > bytes.size() || o > bytes.size()) {
      throw std::runtime_error("aiger binary: declared counts exceed input size");
    }
    if (m >= (1ull << 31)) {
      throw std::runtime_error("aiger binary: variable count out of range");
    }

    Aig aig;
    const std::uint64_t max_lit = 2 * m + 1;
    std::vector<std::uint64_t> po_lits(static_cast<std::size_t>(o));
    for (std::uint64_t k = 0; k < o; ++k) {
      std::uint64_t lit = parse_u64(read_line("output section"),
                                   "output literal", kBinary);
      if (lit > max_lit) {
        throw std::runtime_error("aiger binary: output literal " +
                                 std::to_string(lit) + " out of range (max " +
                                 std::to_string(max_lit) + ")");
      }
      po_lits[static_cast<std::size_t>(k)] = lit;
    }

    // AND fanins, decoded before any node is built: the symbol table sits
    // after the binary section, and PIs must carry their names from
    // construction, so structure is staged here and built at the end.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> and_rhs(
        static_cast<std::size_t>(a));
    SnapshotReader deltas(bytes, pos);
    for (std::uint64_t k = 0; k < a; ++k) {
      std::uint64_t lhs = 2 * (i + 1 + k);
      std::uint64_t delta0 = deltas.varint("aiger binary AND delta");
      std::uint64_t delta1 = deltas.varint("aiger binary AND delta");
      if (delta0 == 0 || delta0 > lhs || delta1 > lhs - delta0) {
        throw std::runtime_error("aiger binary: AND " + std::to_string(lhs) +
                                 " has out-of-range deltas");
      }
      std::uint64_t rhs0 = lhs - delta0;
      and_rhs[static_cast<std::size_t>(k)] = {rhs0, rhs0 - delta1};
    }
    pos = bytes.size() - deltas.remaining();

    std::vector<std::string> pi_names(static_cast<std::size_t>(i));
    std::vector<std::string> po_names(static_cast<std::size_t>(o));
    read_symbol_table(bytes, pos, kBinary, pi_names, po_names);

    // Build: variables 1..I are the implicit inputs, I+1..I+A the ANDs in
    // definition order. Deltas were range-checked against lhs above, so
    // every fanin variable is already defined when referenced.
    std::vector<Lit> var_lit(static_cast<std::size_t>(m) + 1, kLitFalse);
    for (std::uint64_t k = 0; k < i; ++k) {
      var_lit[static_cast<std::size_t>(k) + 1] =
          make_lit(aig.add_pi(pi_names[static_cast<std::size_t>(k)]));
    }
    auto to_lit = [&](std::uint64_t aiger_lit) -> Lit {
      return lit_notcond(var_lit[static_cast<std::size_t>(aiger_lit >> 1)],
                         (aiger_lit & 1) != 0);
    };
    for (std::uint64_t k = 0; k < a; ++k) {
      const auto& [rhs0, rhs1] = and_rhs[static_cast<std::size_t>(k)];
      var_lit[static_cast<std::size_t>(i + 1 + k)] =
          aig.make_and(to_lit(rhs0), to_lit(rhs1));
    }
    for (std::uint64_t k = 0; k < o; ++k) {
      aig.add_po(to_lit(po_lits[static_cast<std::size_t>(k)]),
                 po_names[static_cast<std::size_t>(k)]);
    }
    return aig;
  }
}

}  // namespace emorphic
