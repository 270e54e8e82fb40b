// Pins the resynthesis passes bit for bit: the structure of what
// `refactor`, `sop_balance` and `dch_substitute` return on the ten EPFL
// circuits, and the final AIG and mapped QoR of the "baseline" recipe
// (ResynRounds then TechMap) on each. Any change to ISOP, factoring, the
// factored-form builder, cut scoring or the order cuts are tried in moves
// the digest. The constant comes from the commit before the per-call
// factoring memo; re-derive it only on a parent commit, and only when a
// QoR change is the intent.

#include <gtest/gtest.h>

#include <cstring>

#include "aig/signature.hpp"
#include "benchgen/epfl.hpp"
#include "flow/pipeline.hpp"
#include "opt/refactor.hpp"
#include "opt/resyn.hpp"
#include "opt/sop_balance.hpp"
#include "util/checkpoint.hpp"  // fingerprint_fold

namespace emorphic {
namespace {

std::uint64_t double_bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

TEST(Resyn, GoldenDigestOverEpfl) {
  FlowParams params;
  params.rounds = 2;
  const Pipeline baseline = Pipeline::recipe("baseline");
  std::uint64_t h = 0;
  for (const std::string& name : epfl_names()) {
    const Aig aig = make_epfl(name);
    h = fingerprint_fold(h, structural_signature(refactor(aig)));
    h = fingerprint_fold(h, structural_signature(sop_balance(aig)));
    h = fingerprint_fold(h, structural_signature(dch_substitute(aig)));
    const FlowResult r = baseline.run(aig, params);
    h = fingerprint_fold(h, structural_signature(r.final_aig));
    h = fingerprint_fold(h, double_bits(r.qor.area));
    h = fingerprint_fold(h, double_bits(r.qor.delay));
    h = fingerprint_fold(h, r.qor.lev);
  }
  EXPECT_EQ(h, 0x0e0c38326109b23aull) << "0x" << std::hex << h;
}

}  // namespace
}  // namespace emorphic
