#include "egraph/serialize.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/conversion.hpp"
#include "util/json.hpp"

namespace emorphic {
namespace {

TEST(Serialize, Figure7ShapeIsPresent) {
  // The Fig. 7 document maps class ids to {id, nodes, parents}.
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId f = eg.add_and(a, b);
  std::string text =
      egraph_to_dsl(eg, {SerializedRoot{f, false, "f"}}, {"a", "b"});
  Json doc = Json::parse(text);
  ASSERT_TRUE(doc.contains("egraph"));
  const JsonObject& classes = doc.at("egraph").as_object();
  EXPECT_EQ(classes.size(), 3u);
  // Variable class for "a" lists its AND parent.
  const Json& cls_a = doc.at("egraph").at(std::to_string(a));
  EXPECT_EQ(cls_a.at("nodes").as_array()[0].at("Symbol").as_string(), "a");
  EXPECT_EQ(cls_a.at("parents").as_array().size(), 1u);
}

TEST(Serialize, RoundTripPlainGraph) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId f = eg.add_or(eg.add_not(a), eg.add_and(a, b));
  std::string text =
      egraph_to_dsl(eg, {SerializedRoot{f, true, "out"}}, {"a", "b"});
  DeserializedEGraph back = dsl_to_egraph(text);
  EXPECT_EQ(back.egraph.num_classes(), eg.num_classes());
  EXPECT_EQ(back.egraph.num_enodes(), eg.num_enodes());
  ASSERT_EQ(back.roots.size(), 1u);
  EXPECT_TRUE(back.roots[0].complemented);
  EXPECT_EQ(back.roots[0].name, "out");
  EXPECT_EQ(back.var_names, (std::vector<std::string>{"a", "b"}));
}

TEST(Serialize, RoundTripPreservesCircuitFunction) {
  Rng rng(41);
  for (int round = 0; round < 5; ++round) {
    Aig aig = testing::random_aig(5, 3, 30, rng);
    CircuitEGraph ce = aig_to_egraph(aig);
    CircuitEGraph back = dsl_to_circuit_egraph(ce.to_dsl());
    Aig out = egraph_to_aig_greedy(back);
    EXPECT_TRUE(testing::functionally_equal(aig, out));
  }
}

TEST(Serialize, RoundTripMergedClasses) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId ab = eg.add_and(a, b);
  EClassId ba = eg.add_or(a, b);
  eg.merge(ab, ba);  // artificial, but exercises multi-node classes
  eg.rebuild();
  std::string text =
      egraph_to_dsl(eg, {SerializedRoot{ab, false, "f"}}, {"a", "b"});
  DeserializedEGraph back = dsl_to_egraph(text);
  EXPECT_EQ(back.egraph.num_enodes(), eg.num_enodes());
  EXPECT_EQ(back.egraph.num_classes(), eg.num_classes());
  // The root class still has both forms.
  EXPECT_EQ(back.egraph.eclass(back.roots[0].id).nodes.size(), 2u);
}

TEST(Serialize, RewrittenGraphRoundTrips) {
  // After rewriting, classes hold many nodes and may be cyclic; the DSL
  // keeps at least one acyclic representative per class.
  Rng rng(43);
  Aig aig = testing::random_aig(4, 2, 20, rng);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = 3;
  limits.max_enodes = 5000;
  run_rewriting(ce.egraph, make_logic_rules(), limits);
  CircuitEGraph back = dsl_to_circuit_egraph(ce.to_dsl());
  Aig out = egraph_to_aig_greedy(back);
  EXPECT_TRUE(testing::functionally_equal(aig, out));
}

TEST(Serialize, RenormalizationIsDeterministicAndLossless) {
  // dsl -> egraph -> dsl renumbers classes and reorders parent lists, so
  // the text is not a byte-level fixed point — but the round trip must be
  // deterministic (two independent re-serializations of the same document
  // agree byte for byte) and lossless (class/enode counts and the extracted
  // circuit's function survive any number of passes). Property-checked over
  // random rewritten graphs (multi-node classes, cyclic forms dropped
  // deterministically).
  Rng rng(47);
  for (int round = 0; round < 5; ++round) {
    Aig aig = testing::random_aig(4, 2, 20, rng);
    CircuitEGraph ce = aig_to_egraph(aig);
    RunnerParams limits;
    limits.max_iterations = 2;
    limits.max_enodes = 3000;
    run_rewriting(ce.egraph, make_logic_rules(), limits);
    std::string dsl = ce.to_dsl();
    std::string once_a = dsl_to_circuit_egraph(dsl).to_dsl();
    std::string once_b = dsl_to_circuit_egraph(dsl).to_dsl();
    EXPECT_EQ(once_a, once_b) << "round " << round;
    // Serialization may drop cyclic forms, so compare pass 1 against
    // pass 2 (both post-drop), not against the in-memory graph.
    CircuitEGraph pass1 = dsl_to_circuit_egraph(once_a);
    CircuitEGraph pass2 = dsl_to_circuit_egraph(pass1.to_dsl());
    EXPECT_EQ(pass2.egraph.num_classes(), pass1.egraph.num_classes())
        << "round " << round;
    EXPECT_EQ(pass2.egraph.num_enodes(), pass1.egraph.num_enodes())
        << "round " << round;
    EXPECT_TRUE(testing::functionally_equal(aig, egraph_to_aig_greedy(pass2)))
        << "round " << round;
  }
}

// --- deserializer hardening --------------------------------------------------
// dsl_to_egraph consumes client-supplied text (the service accepts DSL
// payloads); every malformed shape must throw std::runtime_error naming the
// offending location — never crash, never silently coerce or drop.

namespace {
// A structurally valid one-AND document to mutate from.
const char* kGoodDsl =
    R"({"egraph":{)"
    R"("0":{"id":0,"nodes":[{"Symbol":"a"}],"parents":[2]},)"
    R"("1":{"id":1,"nodes":[{"Symbol":"b"}],"parents":[2]},)"
    R"("2":{"id":2,"nodes":[{"AND":[0,1]}],"parents":[]}},)"
    R"("roots":[{"id":2,"compl":false,"name":"f"}],)"
    R"("inputs":["a","b"]})";
}  // namespace

TEST(Serialize, AcceptsTheBaselineDocument) {
  DeserializedEGraph back = dsl_to_egraph(kGoodDsl);
  EXPECT_EQ(back.egraph.num_enodes(), 3u);
  ASSERT_EQ(back.roots.size(), 1u);
}

TEST(Serialize, RejectsDuplicateInputNames) {
  const std::string text =
      R"({"egraph":{},"roots":[],"inputs":["a","a"]})";
  EXPECT_THROW(dsl_to_egraph(text), std::runtime_error);
}

TEST(Serialize, RejectsMalformedClassKeys) {
  for (const char* key : {"x1", "1x", "", "-1", " 1", "999999999999999999999"}) {
    const std::string text = std::string(R"({"egraph":{")") + key +
                             R"(":{"id":0,"nodes":[],"parents":[]}},)" +
                             R"("roots":[],"inputs":[]})";
    EXPECT_THROW(dsl_to_egraph(text), std::runtime_error) << "key " << key;
  }
}

TEST(Serialize, RejectsWrongPayloadTypes) {
  // inputs not an array / input element not a string.
  EXPECT_THROW(dsl_to_egraph(R"({"egraph":{},"roots":[],"inputs":5})"),
               std::runtime_error);
  EXPECT_THROW(dsl_to_egraph(R"({"egraph":{},"roots":[],"inputs":[1]})"),
               std::runtime_error);
  // egraph not an object.
  EXPECT_THROW(dsl_to_egraph(R"({"egraph":[],"roots":[],"inputs":[]})"),
               std::runtime_error);
  // node payload of an operator must be an array of ids.
  EXPECT_THROW(
      dsl_to_egraph(
          R"({"egraph":{"0":{"id":0,"nodes":[{"AND":"01"}],"parents":[]}},)"
          R"("roots":[],"inputs":[]})"),
      std::runtime_error);
  // Symbol payload must be a string.
  EXPECT_THROW(
      dsl_to_egraph(
          R"({"egraph":{"0":{"id":0,"nodes":[{"Symbol":7}],"parents":[]}},)"
          R"("roots":[],"inputs":["a"]})"),
      std::runtime_error);
  // node must be a single-operator object.
  EXPECT_THROW(
      dsl_to_egraph(
          R"({"egraph":{"0":{"id":0,)"
          R"("nodes":[{"Symbol":"a","Const0":[]}],"parents":[]}},)"
          R"("roots":[],"inputs":["a"]})"),
      std::runtime_error);
  // child ids must be non-negative integers.
  EXPECT_THROW(
      dsl_to_egraph(
          R"({"egraph":{"0":{"id":0,"nodes":[{"AND":[0.5,0]}],"parents":[]}},)"
          R"("roots":[],"inputs":[]})"),
      std::runtime_error);
}

TEST(Serialize, RejectsArityViolations) {
  // Oversized child lists would write past the 2-slot ENode children array.
  for (const char* node :
       {R"({"NOT":[0,0]})", R"({"AND":[0]})", R"({"AND":[0,0,0]})",
        R"({"XOR":[]})", R"({"Const0":[0]})"}) {
    const std::string text =
        std::string(R"({"egraph":{"0":{"id":0,"nodes":[{"Symbol":"a"},)") +
        node + R"(],"parents":[]}},"roots":[],"inputs":["a"]})";
    EXPECT_THROW(dsl_to_egraph(text), std::runtime_error) << "node " << node;
  }
}

TEST(Serialize, RejectsUndefinedClassReferences) {
  // An AND child naming a class the document never declares used to be
  // silently dropped via the cyclic-forms path; it must be a typed error.
  EXPECT_THROW(
      dsl_to_egraph(
          R"({"egraph":{"0":{"id":0,"nodes":[{"AND":[5,5]}],"parents":[]}},)"
          R"("roots":[],"inputs":[]})"),
      std::runtime_error);
  // Same for a root.
  EXPECT_THROW(
      dsl_to_egraph(
          R"({"egraph":{"0":{"id":0,"nodes":[{"Symbol":"a"}],"parents":[]}},)"
          R"("roots":[{"id":9,"compl":false,"name":"f"}],"inputs":["a"]})"),
      std::runtime_error);
}

TEST(Serialize, RejectsWrongRootFieldTypes) {
  EXPECT_THROW(
      dsl_to_egraph(
          R"({"egraph":{"0":{"id":0,"nodes":[{"Symbol":"a"}],"parents":[]}},)"
          R"("roots":[{"id":0,"compl":"no","name":"f"}],"inputs":["a"]})"),
      std::runtime_error);
  EXPECT_THROW(
      dsl_to_egraph(
          R"({"egraph":{"0":{"id":0,"nodes":[{"Symbol":"a"}],"parents":[]}},)"
          R"("roots":[{"id":0,"compl":false,"name":3}],"inputs":["a"]})"),
      std::runtime_error);
}

TEST(Serialize, RejectsFullyCyclicClass) {
  // A class whose every form depends on itself has no acyclic
  // representative to keep.
  EXPECT_THROW(
      dsl_to_egraph(
          R"({"egraph":{"0":{"id":0,"nodes":[{"NOT":[0]}],"parents":[]}},)"
          R"("roots":[],"inputs":[]})"),
      std::runtime_error);
}

TEST(Serialize, RejectsUnknownSymbol) {
  const std::string text =
      R"({"egraph":{"0":{"id":0,"nodes":[{"Symbol":"zz"}],"parents":[]}},)"
      R"("roots":[],"inputs":["a"]})";
  EXPECT_THROW(dsl_to_egraph(text), std::runtime_error);
}

TEST(Serialize, RejectsUnknownOperator) {
  const std::string text =
      R"({"egraph":{"0":{"id":0,"nodes":[{"NAND":[0,0]}],"parents":[]}},)"
      R"("roots":[],"inputs":[]})";
  EXPECT_THROW(dsl_to_egraph(text), std::runtime_error);
}

}  // namespace
}  // namespace emorphic
