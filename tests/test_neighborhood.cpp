#include "operators/neighborhood.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "construct/i1_insertion.hpp"
#include "test_support.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

class NeighborhoodTest : public ::testing::Test {
 protected:
  NeighborhoodTest()
      : inst_(generate_named("R1_1_1")),
        engine_(inst_),
        generator_(engine_) {}

  Solution seed() {
    Rng rng(5);
    return construct_i1_random(inst_, rng);
  }

  Instance inst_;
  MoveEngine engine_;
  NeighborhoodGenerator generator_;
};

TEST_F(NeighborhoodTest, ProducesRequestedCount) {
  Rng rng(1);
  const Solution base = seed();
  const auto n = generator_.generate(base, 200, rng);
  EXPECT_EQ(n.size(), 200u);
}

TEST_F(NeighborhoodTest, AllNeighborsAreValidAndFeasible) {
  Rng rng(2);
  const Solution base = seed();
  for (const Neighbor& nb : generator_.generate(base, 100, rng)) {
    EXPECT_TRUE(engine_.applicable(base, nb.move)) << to_string(nb.move);
    EXPECT_TRUE(engine_.locally_feasible(base, nb.move));
  }
}

TEST_F(NeighborhoodTest, NeighborObjectivesMatchMaterialization) {
  Rng rng(3);
  const Solution base = seed();
  for (const Neighbor& nb : generator_.generate(base, 50, rng)) {
    const Solution s = generator_.materialize(base, nb);
    EXPECT_EQ(nb.obj, s.objectives());
    EXPECT_NO_THROW(s.validate());
  }
}

TEST_F(NeighborhoodTest, MaterializeDoesNotTouchBase) {
  Rng rng(4);
  const Solution base = seed();
  const Objectives before = base.objectives();
  const auto n = generator_.generate(base, 20, rng);
  for (const Neighbor& nb : n) generator_.materialize(base, nb);
  EXPECT_EQ(base.objectives(), before);
}

TEST_F(NeighborhoodTest, DeterministicGivenSameRngState) {
  const Solution base = seed();
  Rng r1(77), r2(77);
  const auto a = generator_.generate(base, 60, r1);
  const auto b = generator_.generate(base, 60, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].move, b[i].move);
    EXPECT_EQ(a[i].obj, b[i].obj);
  }
}

TEST_F(NeighborhoodTest, UsesAllFiveOperators) {
  Rng rng(6);
  const Solution base = seed();
  bool seen[kNumMoveTypes] = {};
  for (const Neighbor& nb : generator_.generate(base, 400, rng)) {
    seen[static_cast<int>(nb.move.type)] = true;
  }
  for (int t = 0; t < kNumMoveTypes; ++t) {
    EXPECT_TRUE(seen[t]) << "operator " << t << " never sampled";
  }
}

TEST_F(NeighborhoodTest, PrunedSamplingYieldsApplicableMovesAllOperators) {
  const auto cands = make_candidate_list(inst_, 16);
  engine_.set_candidate_list(cands.get());
  Rng rng(8);
  const Solution base = seed();
  bool seen[kNumMoveTypes] = {};
  for (const Neighbor& nb : generator_.generate(base, 400, rng)) {
    ASSERT_TRUE(engine_.applicable(base, nb.move)) << to_string(nb.move);
    ASSERT_TRUE(engine_.locally_feasible(base, nb.move));
    ASSERT_EQ(nb.obj, generator_.materialize(base, nb).objectives());
    seen[static_cast<int>(nb.move.type)] = true;
  }
  for (int t = 0; t < kNumMoveTypes; ++t) {
    EXPECT_TRUE(seen[t]) << "operator " << t << " never sampled (pruned)";
  }
  engine_.set_candidate_list(nullptr);
}

TEST_F(NeighborhoodTest, PrunedSamplingIsDeterministic) {
  const auto cands = make_candidate_list(inst_, 10);
  engine_.set_candidate_list(cands.get());
  const Solution base = seed();
  Rng r1(21), r2(21);
  const auto a = generator_.generate(base, 80, r1);
  const auto b = generator_.generate(base, 80, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].move, b[i].move);
    EXPECT_EQ(a[i].obj, b[i].obj);
  }
  engine_.set_candidate_list(nullptr);
}

TEST(NeighborhoodDegenerate, TinyInstanceMayYieldFewer) {
  // 2 customers in 2 routes: no or-opt possible, limited moves; generation
  // must terminate and return only valid moves.
  const Instance inst = testing::line_instance(2, /*max_vehicles=*/2);
  MoveEngine engine(inst);
  NeighborhoodGenerator generator(engine);
  const Solution base = Solution::from_routes(inst, {{1}, {2}});
  Rng rng(8);
  const auto n = generator.generate(base, 50, rng);
  EXPECT_LE(n.size(), 50u);
  for (const Neighbor& nb : n) {
    EXPECT_TRUE(engine.applicable(base, nb.move));
  }
}

TEST(NeighborhoodDegenerate, ZeroCountYieldsEmpty) {
  const Instance inst = testing::line_instance(3);
  MoveEngine engine(inst);
  NeighborhoodGenerator generator(engine);
  const Solution base = Solution::from_routes(inst, {{1, 2, 3}});
  Rng rng(9);
  EXPECT_TRUE(generator.generate(base, 0, rng).empty());
}

}  // namespace
}  // namespace tsmo
