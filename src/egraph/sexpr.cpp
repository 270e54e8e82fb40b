#include "egraph/sexpr.hpp"

#include <cctype>
#include <unordered_map>

#include "util/timer.hpp"

namespace emorphic {

namespace {

class Budget {
 public:
  explicit Budget(const SExprLimits& limits) : limits_(limits) {}

  void charge(std::size_t total_chars) {
    if (total_chars > limits_.max_chars) {
      throw SExprLimitError(SExprLimitError::Kind::kMemory,
                            "s-expression exceeded memory budget");
    }
    if (++checks_ >= 1024) {
      checks_ = 0;
      if (timer_.seconds() > limits_.time_limit_s) {
        throw SExprLimitError(SExprLimitError::Kind::kTimeout,
                              "s-expression conversion timed out");
      }
    }
  }

 private:
  const SExprLimits& limits_;
  Timer timer_;
  std::size_t checks_ = 0;
};

void flatten_lit(const Aig& aig, Lit lit, std::string& out, Budget& budget) {
  budget.charge(out.size());
  Var v = lit_var(lit);
  if (lit_is_compl(lit)) {
    out += "(not ";
    flatten_lit(aig, lit_not(lit), out, budget);
    out += ')';
    return;
  }
  if (aig.is_const0(v)) {
    out += "false";
  } else if (aig.is_pi(v)) {
    out += aig.pi_name(aig.pi_index(v));
  } else {
    out += "(and ";
    flatten_lit(aig, aig.fanin0(v), out, budget);
    out += ' ';
    flatten_lit(aig, aig.fanin1(v), out, budget);
    out += ')';
  }
}

}  // namespace

std::string aig_to_sexpr(const Aig& aig, const SExprLimits& limits) {
  Budget budget(limits);
  std::string out = "(outputs";
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    out += " (";
    out += aig.po_name(i);
    out += ' ';
    flatten_lit(aig, aig.po(i), out, budget);
    out += ')';
  }
  out += ')';
  return out;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

struct SExprToken {
  enum class Kind { kLParen, kRParen, kAtom } kind;
  std::string atom;
};

class SExprParser {
 public:
  SExprParser(const std::string& text, const SExprLimits& limits)
      : text_(text), budget_(limits) {}

  // Generic callbacks build either an e-graph or an AIG.
  template <typename Builder>
  void parse_document(Builder& builder) {
    skip_ws();
    expect('(');
    expect_atom("outputs");
    while (skip_ws(), peek() != ')') {
      expect('(');
      std::string name = parse_atom();
      auto value = parse_expr(builder);
      builder.add_output(name, value);
      skip_ws();
      expect(')');
    }
    expect(')');
  }

  template <typename Builder>
  typename Builder::Value parse_expr(Builder& builder) {
    budget_.charge(pos_);
    skip_ws();
    if (peek() != '(') {
      std::string atom = parse_atom();
      if (atom == "false") return builder.make_const(false);
      if (atom == "true") return builder.make_const(true);
      return builder.make_leaf(atom);
    }
    expect('(');
    std::string op = parse_atom();
    if (op == "not") {
      auto a = parse_expr(builder);
      skip_ws();
      expect(')');
      return builder.make_not(a);
    }
    auto a = parse_expr(builder);
    auto b = parse_expr(builder);
    skip_ws();
    expect(')');
    if (op == "and") return builder.make_and(a, b);
    if (op == "or") return builder.make_or(a, b);
    if (op == "xor") return builder.make_xor(a, b);
    throw std::runtime_error("s-expression: unknown operator " + op);
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) {
      throw std::runtime_error("s-expression: unexpected end");
    }
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("s-expression: expected '") + c +
                               "' at offset " + std::to_string(pos_));
    }
    ++pos_;
  }
  std::string parse_atom() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '(' && text_[pos_] != ')' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("s-expression: expected atom");
    return text_.substr(start, pos_ - start);
  }
  void expect_atom(const std::string& atom) {
    if (parse_atom() != atom) {
      throw std::runtime_error("s-expression: expected '" + atom + "'");
    }
  }

  const std::string& text_;
  Budget budget_;
  std::size_t pos_ = 0;
};

struct EGraphBuilder {
  using Value = EClassId;
  SExprEGraph& out;
  std::unordered_map<std::string, std::uint32_t> symbols;

  Value make_const(bool one) {
    return one ? out.egraph.add_const1() : out.egraph.add_const0();
  }
  Value make_leaf(const std::string& name) {
    auto it = symbols.find(name);
    std::uint32_t sym;
    if (it == symbols.end()) {
      sym = static_cast<std::uint32_t>(out.var_names.size());
      out.var_names.push_back(name);
      symbols.emplace(name, sym);
    } else {
      sym = it->second;
    }
    return out.egraph.add_var(sym);
  }
  Value make_not(Value a) { return out.egraph.add_not(a); }
  Value make_and(Value a, Value b) { return out.egraph.add_and(a, b); }
  Value make_or(Value a, Value b) { return out.egraph.add_or(a, b); }
  Value make_xor(Value a, Value b) { return out.egraph.add_xor(a, b); }
  void add_output(const std::string& name, Value v) {
    out.roots.push_back(SerializedRoot{v, false, name});
  }
};

struct AigBuilder {
  using Value = Lit;
  Aig& aig;
  std::unordered_map<std::string, Lit> leaves;
  std::vector<std::pair<std::string, Lit>> outputs;

  Value make_const(bool one) { return one ? kLitTrue : kLitFalse; }
  Value make_leaf(const std::string& name) {
    auto it = leaves.find(name);
    if (it != leaves.end()) return it->second;
    Lit lit = make_lit(aig.add_pi(name));
    leaves.emplace(name, lit);
    return lit;
  }
  Value make_not(Value a) { return lit_not(a); }
  Value make_and(Value a, Value b) { return aig.make_and(a, b); }
  Value make_or(Value a, Value b) { return aig.make_or(a, b); }
  Value make_xor(Value a, Value b) { return aig.make_xor(a, b); }
  void add_output(const std::string& name, Value v) {
    outputs.emplace_back(name, v);
  }
};

}  // namespace

SExprEGraph sexpr_to_egraph(const std::string& text, const SExprLimits& limits) {
  SExprEGraph out;
  EGraphBuilder builder{out, {}};
  SExprParser parser(text, limits);
  parser.parse_document(builder);
  out.egraph.rebuild();
  return out;
}

Aig sexpr_to_aig(const std::string& text, const SExprLimits& limits) {
  Aig aig;
  AigBuilder builder{aig, {}, {}};
  SExprParser parser(text, limits);
  parser.parse_document(builder);
  for (auto& [name, lit] : builder.outputs) aig.add_po(lit, name);
  return aig;
}

}  // namespace emorphic
