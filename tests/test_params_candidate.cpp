// Tests for TsmoParams (perturbation, clamping) and the Candidate helpers.

#include <gtest/gtest.h>

#include "core/candidate.hpp"
#include "core/params.hpp"
#include "test_support.hpp"
#include "util/stats.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

TEST(TsmoParams, DefaultsMatchPaper) {
  const TsmoParams p;
  EXPECT_EQ(p.max_evaluations, 100000);
  EXPECT_EQ(p.neighborhood_size, 200);
  EXPECT_EQ(p.tabu_tenure, 20);
  EXPECT_EQ(p.archive_capacity, 20);
  EXPECT_EQ(p.restart_after, 100);
  EXPECT_FALSE(p.use_aspiration);
}

TEST(TsmoParams, PerturbedKeepsBudgetAndSeed) {
  Rng rng(1);
  const TsmoParams base;
  const TsmoParams p = base.perturbed(rng);
  EXPECT_EQ(p.max_evaluations, base.max_evaluations);
  EXPECT_EQ(p.seed, base.seed);
}

TEST(TsmoParams, PerturbationHasQuarterSigma) {
  // §III.E: sd of the disturbance is a quarter of the parameter.
  Rng rng(2);
  const TsmoParams base;
  RunningStats nbhd;
  for (int i = 0; i < 3000; ++i) {
    nbhd.add(static_cast<double>(base.perturbed(rng).neighborhood_size));
  }
  EXPECT_NEAR(nbhd.mean(), 200.0, 3.0);
  EXPECT_NEAR(nbhd.stddev(), 50.0, 4.0);
}

TEST(TsmoParams, PerturbedStaysPositive) {
  Rng rng(3);
  TsmoParams tiny;
  tiny.neighborhood_size = 2;
  tiny.tabu_tenure = 1;
  tiny.archive_capacity = 2;
  tiny.restart_after = 1;
  for (int i = 0; i < 500; ++i) {
    const TsmoParams p = tiny.perturbed(rng);
    EXPECT_GE(p.neighborhood_size, 1);
    EXPECT_GE(p.tabu_tenure, 1);
    EXPECT_GE(p.archive_capacity, 2);
    EXPECT_GE(p.nondom_capacity, 1);
    EXPECT_GE(p.restart_after, 1);
  }
}

// candidate_k must never be perturbed: multisearch and hybrid share ONE
// candidate list across searchers (valid only because k agrees), and any
// extra rng.normal draw would shift the whole perturbation stream and break
// every golden-seed fingerprint.
TEST(TsmoParams, PerturbedNeverTouchesCandidateK) {
  TsmoParams base;
  base.candidate_k = 16;
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const TsmoParams p = base.perturbed(rng);
    ASSERT_EQ(p.candidate_k, 16);
  }
  // And adding the knob consumed no extra RNG: the draw count per call is
  // unchanged, so the same seed still yields the same perturbed values.
  Rng a(99), b(99);
  TsmoParams plain;
  TsmoParams pruned;
  pruned.candidate_k = 16;
  const TsmoParams pa = plain.perturbed(a);
  const TsmoParams pb = pruned.perturbed(b);
  EXPECT_EQ(pa.neighborhood_size, pb.neighborhood_size);
  EXPECT_EQ(pa.tabu_tenure, pb.tabu_tenure);
  EXPECT_EQ(pa.archive_capacity, pb.archive_capacity);
  EXPECT_EQ(pa.restart_after, pb.restart_after);
  EXPECT_EQ(a.next(), b.next());  // streams still aligned afterwards
}

TEST(TsmoParams, ClampFixesNonsense) {
  TsmoParams p;
  p.max_evaluations = -5;
  p.neighborhood_size = 0;
  p.archive_capacity = 0;
  p.candidate_k = -4;
  p.clamp();
  EXPECT_EQ(p.max_evaluations, 1);
  EXPECT_EQ(p.neighborhood_size, 1);
  EXPECT_EQ(p.archive_capacity, 2);
  EXPECT_EQ(p.candidate_k, 0);
}

TEST(Candidate, MakeCandidatesSharesBase) {
  const Instance inst = testing::line_instance(6);
  MoveEngine engine(inst);
  NeighborhoodGenerator generator(engine);
  auto base = std::make_shared<const Solution>(
      Solution::from_routes(inst, {{1, 2, 3}, {4, 5, 6}}));
  Rng rng(4);
  const auto candidates = make_candidates(generator, base, 20, rng);
  EXPECT_FALSE(candidates.empty());
  for (const Candidate& c : candidates) {
    EXPECT_EQ(c.base.get(), base.get());
  }
}

TEST(Candidate, MaterializeUsesOwnBaseNotCurrent) {
  const Instance inst = testing::line_instance(6);
  MoveEngine engine(inst);
  NeighborhoodGenerator generator(engine);
  auto base = std::make_shared<const Solution>(
      Solution::from_routes(inst, {{1, 2, 3}, {4, 5, 6}}));
  Rng rng(5);
  const auto candidates = make_candidates(generator, base, 10, rng);
  ASSERT_FALSE(candidates.empty());
  // Even after the caller drops its handle, materialization works off the
  // candidate's own base (async stale-neighbor semantics).
  const Candidate c = candidates.front();
  base.reset();
  const Solution s = materialize(engine, c);
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.objectives(), c.obj);
}

TEST(Candidate, NondominatedIndicesMatchesFilterSemantics) {
  const Instance inst = testing::line_instance(3);
  auto base = std::make_shared<const Solution>(
      Solution::from_routes(inst, {{1, 2, 3}}));
  auto mk = [&](double d, int v, double t) {
    Candidate c;
    c.obj = Objectives{d, v, t};
    c.base = base;
    return c;
  };
  const std::vector<Candidate> cands = {mk(1, 1, 9), mk(2, 2, 9),
                                        mk(9, 1, 1), mk(1, 1, 9)};
  const auto idx = nondominated_indices(cands);
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 2}));
}

TEST(Candidate, NondominatedIndicesEmptyInput) {
  EXPECT_TRUE(nondominated_indices({}).empty());
}

}  // namespace
}  // namespace tsmo
