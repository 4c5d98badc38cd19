#include "vrptw/solution.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "operators/move_engine.hpp"
#include "test_support.hpp"

namespace tsmo {
namespace {

TEST(Solution, EmptyFleetEvaluatesToZero) {
  const Instance inst = testing::tiny_instance();
  Solution s(inst);
  EXPECT_TRUE(s.is_evaluated());
  EXPECT_EQ(s.objectives(), Objectives{});
  EXPECT_EQ(s.num_routes(), 3);
  EXPECT_EQ(s.vehicles_used(), 0);
  EXPECT_TRUE(s.feasible());
}

TEST(Solution, FromRoutesEvaluates) {
  const Instance inst = testing::tiny_instance();
  const Solution s = Solution::from_routes(inst, {{1, 2}, {3, 4}});
  EXPECT_TRUE(s.is_evaluated());
  EXPECT_EQ(s.objectives().vehicles, 2);
  // Route 1: 3 + 5 + 4 = 12; route 2: 3 + 5 + 4 = 12.
  EXPECT_DOUBLE_EQ(s.objectives().distance, 24.0);
  EXPECT_DOUBLE_EQ(s.objectives().tardiness, 0.0);
}

TEST(Solution, FromRoutesPadsToFleetSize) {
  const Instance inst = testing::tiny_instance();
  const Solution s = Solution::from_routes(inst, {{1, 2, 3, 4}});
  EXPECT_EQ(s.num_routes(), 3);
  EXPECT_EQ(s.vehicles_used(), 1);
}

TEST(Solution, FromRoutesRejectsOversizedFleet) {
  const Instance inst = testing::tiny_instance();
  EXPECT_THROW(Solution::from_routes(inst, {{1}, {2}, {3}, {4}}),
               std::invalid_argument);
}

TEST(Solution, PaperPermutationExample) {
  // The paper's §II.A example: 4 customers, 5 vehicles,
  // P = (0, 4, 2, 0, 3, 0, 1, 0, 0, 0).
  const Instance inst = testing::tiny_instance(/*max_vehicles=*/5);
  const Solution s =
      Solution::from_routes(inst, {{4, 2}, {3}, {1}});
  const std::vector<int> expected = {0, 4, 2, 0, 3, 0, 1, 0, 0, 0};
  EXPECT_EQ(s.to_permutation(), expected);
  // |P| = N + R + 1 = 4 + 5 + 1.
  EXPECT_EQ(s.to_permutation().size(), 10u);
}

TEST(Solution, PermutationRoundTripPreservesRoutesAndObjectives) {
  const Instance inst = testing::tiny_instance();
  const Solution original = Solution::from_routes(inst, {{2, 1}, {4, 3}});
  const Solution decoded =
      Solution::from_permutation(inst, original.to_permutation());
  EXPECT_EQ(decoded.objectives(), original.objectives());
  EXPECT_EQ(decoded.to_permutation(), original.to_permutation());
  EXPECT_EQ(decoded.hash(), original.hash());
}

TEST(Solution, FromPermutationCollapsesConsecutiveZeros) {
  const Instance inst = testing::tiny_instance();
  const std::vector<int> perm = {0, 0, 1, 0, 0, 2, 3, 4, 0, 0};
  const Solution s = Solution::from_permutation(inst, perm);
  EXPECT_EQ(s.vehicles_used(), 2);
  EXPECT_NO_THROW(s.validate());
}

TEST(Solution, FromPermutationRejectsBadIndices) {
  const Instance inst = testing::tiny_instance();
  const std::vector<int> bad = {0, 9, 0};
  EXPECT_THROW(Solution::from_permutation(inst, bad),
               std::invalid_argument);
  const std::vector<int> neg = {0, -1, 0};
  EXPECT_THROW(Solution::from_permutation(inst, neg),
               std::invalid_argument);
}

TEST(Solution, IncrementalEvaluationMatchesFull) {
  const Instance inst = testing::tiny_instance();
  Solution s = Solution::from_routes(inst, {{1, 2}, {3, 4}});
  // Move customer 2 from route 0 to route 1 by direct mutation.
  s.mutable_route(0) = {1};
  s.mutable_route(1) = {3, 4, 2};
  s.evaluate();
  const Solution fresh = Solution::from_routes(inst, {{1}, {3, 4, 2}});
  EXPECT_EQ(s.objectives(), fresh.objectives());
  EXPECT_EQ(s.route_stats(0), fresh.route_stats(0));
  EXPECT_EQ(s.route_stats(1), fresh.route_stats(1));
}

TEST(Solution, MutableRouteInvalidatesUntilEvaluate) {
  const Instance inst = testing::tiny_instance();
  Solution s = Solution::from_routes(inst, {{1, 2}});
  s.mutable_route(0);
  EXPECT_FALSE(s.is_evaluated());
  s.evaluate();
  EXPECT_TRUE(s.is_evaluated());
}

TEST(Solution, VehiclesCountsNonEmptyRoutes) {
  const Instance inst = testing::tiny_instance();
  Solution s = Solution::from_routes(inst, {{1}, {}, {2, 3, 4}});
  EXPECT_EQ(s.vehicles_used(), 2);
  EXPECT_EQ(s.objectives().vehicles, 2);
  // Emptying a route reduces the count.
  s.mutable_route(0).clear();
  s.mutable_route(2).push_back(1);
  s.evaluate();
  EXPECT_EQ(s.objectives().vehicles, 1);
}

TEST(Solution, CapacityViolationMeasured) {
  const Instance inst = testing::tiny_instance(3, /*capacity=*/25.0);
  // Route {2, 3} carries 50 > 25.
  const Solution s = Solution::from_routes(inst, {{2, 3}, {1}, {4}});
  EXPECT_DOUBLE_EQ(s.capacity_violation(), 25.0);
  EXPECT_FALSE(s.feasible());
}

TEST(Solution, FeasibleRequiresZeroTardiness) {
  std::vector<Site> sites = {{0, 0, 0, 0, 1000, 0}, {3, 0, 5, 0, 2, 1}};
  const Instance inst("t", std::move(sites), 2, 100.0);
  const Solution s = Solution::from_routes(inst, {{1}});
  EXPECT_GT(s.objectives().tardiness, 0.0);
  EXPECT_FALSE(s.feasible());
}

/// Every customer's Visit record agrees with the route vectors: route,
/// position, and the neighbours with the depot (0) at both ends; unrouted
/// customers read -1, -1, 0, 0.
void expect_records_match_routes(const Solution& s, const std::string& what) {
  const Instance& inst = s.instance();
  std::vector<int> seen(static_cast<std::size_t>(inst.num_sites()), 0);
  for (int r = 0; r < s.num_routes(); ++r) {
    const auto& route = s.route(r);
    const int len = static_cast<int>(route.size());
    for (int p = 0; p < len; ++p) {
      const int c = route[static_cast<std::size_t>(p)];
      seen[static_cast<std::size_t>(c)] = 1;
      EXPECT_EQ(s.route_of(c), r) << what << " customer " << c;
      EXPECT_EQ(s.position_of(c), p) << what << " customer " << c;
      EXPECT_EQ(s.visit(c).pred, p > 0 ? route[p - 1] : 0)
          << what << " customer " << c;
      EXPECT_EQ(s.visit(c).succ, p + 1 < len ? route[p + 1] : 0)
          << what << " customer " << c;
    }
  }
  for (int c = 1; c <= inst.num_customers(); ++c) {
    if (seen[static_cast<std::size_t>(c)]) continue;
    EXPECT_EQ(s.route_of(c), -1) << what << " customer " << c;
    EXPECT_EQ(s.position_of(c), -1) << what << " customer " << c;
    EXPECT_EQ(s.visit(c).pred, 0) << what << " customer " << c;
    EXPECT_EQ(s.visit(c).succ, 0) << what << " customer " << c;
  }
}

TEST(Solution, RouteOfAndPositionOf) {
  const Instance inst = testing::tiny_instance();
  const Solution s = Solution::from_routes(inst, {{1, 2}, {3, 4}});
  EXPECT_EQ(s.route_of(1), 0);
  EXPECT_EQ(s.route_of(4), 1);
  EXPECT_EQ(s.position_of(1), 0);
  EXPECT_EQ(s.position_of(2), 1);
  EXPECT_EQ(s.position_of(4), 1);
  EXPECT_EQ(s.visit(1).pred, 0);
  EXPECT_EQ(s.visit(1).succ, 2);
  EXPECT_EQ(s.visit(2).pred, 1);
  EXPECT_EQ(s.visit(2).succ, 0);
  expect_records_match_routes(s, "from_routes");
  expect_records_match_routes(Solution::from_routes(inst, {{2}, {}, {4, 1}}),
                              "partial");

  // After apply of each move type (line customers 1..8, all windows open).
  const Instance line = testing::line_instance(8);
  const Solution base =
      Solution::from_routes(line, {{1, 2, 3, 4}, {5, 6, 7}, {8}});
  const MoveEngine engine(line);
  const Move moves[] = {
      {MoveType::Relocate, 0, 1, 1, 3},   // 2 to the end of route 1
      {MoveType::Relocate, 2, 0, 0, 0},   // 8 to the front, route 2 empties
      {MoveType::Exchange, 0, 2, 3, 0},   // 4 <-> 8
      {MoveType::TwoOpt, 0, 0, 0, 3},     // reverse the whole route 0
      {MoveType::TwoOptStar, 0, 1, 2, 1}, // cross tails
      {MoveType::OrOpt, 0, 0, 0, 2},      // move (1, 2) behind 4
  };
  for (const Move& m : moves) {
    ASSERT_TRUE(engine.applicable(base, m)) << to_string(m);
    Solution moved = base;
    engine.apply(moved, m);
    expect_records_match_routes(moved, to_string(m));
  }
}

TEST(Solution, ValidateDetectsDuplicatesAndMissing) {
  const Instance inst = testing::tiny_instance();
  Solution s = Solution::from_routes(inst, {{1, 2}, {3, 4}});
  EXPECT_NO_THROW(s.validate());
  s.mutable_route(0) = {1, 1};  // duplicate 1, missing 2
  s.evaluate();
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(Solution, HashDiffersForDifferentSolutions) {
  const Instance inst = testing::tiny_instance();
  const Solution a = Solution::from_routes(inst, {{1, 2}, {3, 4}});
  const Solution b = Solution::from_routes(inst, {{2, 1}, {3, 4}});
  const Solution c = Solution::from_routes(inst, {{1, 2}, {3, 4}});
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), c.hash());
}

TEST(Solution, HashIgnoresEmptyRouteSlotsPositions) {
  const Instance inst = testing::tiny_instance();
  const Solution a = Solution::from_routes(inst, {{1, 2, 3, 4}, {}});
  const Solution b = Solution::from_routes(inst, {{1, 2, 3, 4}});
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Solution, CopyIsIndependent) {
  const Instance inst = testing::tiny_instance();
  Solution a = Solution::from_routes(inst, {{1, 2}, {3, 4}});
  Solution b = a;
  b.mutable_route(0).clear();
  b.mutable_route(1) = {3, 4, 1, 2};
  b.evaluate();
  EXPECT_EQ(a.vehicles_used(), 2);
  EXPECT_EQ(b.vehicles_used(), 1);
  EXPECT_NO_THROW(a.validate());
  EXPECT_NO_THROW(b.validate());
}

}  // namespace
}  // namespace tsmo
