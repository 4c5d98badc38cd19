// Differential testing across execution substrates: the simulated
// sequential driver must be *bit-identical* to the direct implementation
// for every instance class and seed (the virtual clock must never alter
// the search), and repeated runs of any deterministic driver must agree.

#include <gtest/gtest.h>

#include "core/sequential_tsmo.hpp"
#include "sim/sim_tsmo.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

struct Case {
  const char* instance;
  std::uint64_t seed;
};

// gtest would otherwise print a Case as its raw bytes, which include the
// ASLR-randomised address of `instance`, and ctest names each case after
// that printout — so the test names would change from build to build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.instance << " seed " << c.seed;
}

class Differential : public ::testing::TestWithParam<Case> {};

TEST_P(Differential, SimSequentialEqualsDirect) {
  const auto [name, seed] = GetParam();
  const Instance inst = generate_named(name);
  TsmoParams p;
  p.max_evaluations = 2000;
  p.neighborhood_size = 40;
  p.restart_after = 10;
  p.seed = seed;
  const RunResult direct = SequentialTsmo(inst, p).run();
  const RunResult simulated =
      run_sim_sequential(inst, p, CostModel::for_instance(inst));
  ASSERT_EQ(direct.front.size(), simulated.front.size());
  for (std::size_t i = 0; i < direct.front.size(); ++i) {
    EXPECT_EQ(direct.front[i], simulated.front[i]);
  }
  EXPECT_EQ(direct.iterations, simulated.iterations);
  EXPECT_EQ(direct.restarts, simulated.restarts);
  EXPECT_EQ(direct.evaluations, simulated.evaluations);
}

INSTANTIATE_TEST_SUITE_P(
    ClassesAndSeeds, Differential,
    ::testing::Values(Case{"R1_1_1", 1}, Case{"R1_1_1", 2},
                      Case{"C1_1_1", 3}, Case{"C2_1_1", 4},
                      Case{"R2_1_1", 5}, Case{"RC1_1_1", 6},
                      Case{"RC2_1_2", 7}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.instance) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(Differential, SimVariantsUnaffectedByCostScale) {
  // Scaling every cost uniformly changes virtual times but must not
  // change any search decision (timing *ratios* drive visibility).
  const Instance inst = generate_named("R1_1_1");
  TsmoParams p;
  p.max_evaluations = 2000;
  p.neighborhood_size = 40;
  p.seed = 17;
  CostModel base = CostModel::for_instance(inst);
  CostModel scaled = base;
  scaled.eval_us *= 10.0;
  scaled.sel_per_cand_us *= 10.0;
  scaled.iter_overhead_us *= 10.0;
  scaled.msg_us *= 10.0;
  scaled.transfer_solution_us *= 10.0;
  scaled.transfer_per_cand_us *= 10.0;
  const RunResult a = run_sim_async(inst, p, 3, base);
  const RunResult b = run_sim_async(inst, p, 3, scaled);
  EXPECT_EQ(a.front, b.front);
  EXPECT_NEAR(b.sim_seconds / a.sim_seconds, 10.0, 0.5);
}

}  // namespace
}  // namespace tsmo
