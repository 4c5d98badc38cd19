#include "vrptw/instance.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>

#include "test_support.hpp"
#include "util/rng.hpp"
#include "vrptw/candidate_list.hpp"
#include "vrptw/generator.hpp"
#include "vrptw/solomon_io.hpp"

namespace tsmo {
namespace {

TEST(Instance, BasicAccessors) {
  const Instance inst = testing::tiny_instance();
  EXPECT_EQ(inst.name(), "tiny");
  EXPECT_EQ(inst.num_customers(), 4);
  EXPECT_EQ(inst.num_sites(), 5);
  EXPECT_EQ(inst.max_vehicles(), 3);
  EXPECT_EQ(inst.capacity(), 60.0);
  EXPECT_EQ(inst.horizon(), 1000.0);
  EXPECT_EQ(inst.depot().demand, 0.0);
}

TEST(Instance, EuclideanDistances) {
  const Instance inst = testing::tiny_instance();
  EXPECT_DOUBLE_EQ(inst.distance(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(inst.distance(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(inst.distance(1, 2), 5.0);  // 3-4-5 triangle
  EXPECT_DOUBLE_EQ(inst.distance(1, 3), 6.0);
  EXPECT_DOUBLE_EQ(inst.distance(2, 4), 8.0);
}

/// `n` sites with seeded coordinates and windows tight enough that some
/// junctions pass and some fail.
Instance random_sites(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Site> sites;
  sites.push_back({50, 50, 0, 0, 400, 0});
  for (int i = 1; i < n; ++i) {
    const double ready = rng.uniform(0, 300);
    sites.push_back({rng.uniform(0, 100), rng.uniform(0, 100), 1, ready,
                     ready + rng.uniform(0, 60), rng.uniform(0, 10)});
  }
  return Instance("sites" + std::to_string(n), std::move(sites), 1, 100.0);
}

// I1's insertion columns and the candidate lists read t(j, i) from row i
// (Instance::distance_row), so T must be symmetric bit for bit, not
// within a tolerance.  The junction bitmap, built in the same row pass,
// must hold exactly the arithmetic test tw_reachable for every ordered
// pair.  Inputs: the hand-built instance; 1, 63, 64 and 65 sites (one
// and two bitmap words a row); a generated 1000-customer clustered one
// (1001 sites); a Solomon-parsed one; and a pair whose junction meets
// the due date exactly.
TEST(Instance, DistanceMatrixIsSymmetricWithZeroDiagonal) {
  std::stringstream solomon;
  write_solomon(solomon, generate_named("RC2_2_1"));
  // 10 + 5 + t(1, 2) = 10 + 5 + 5 == 20, the due date of site 2; site 3
  // stands where site 2 does, due half a unit earlier.
  std::vector<Site> exact = {{0, 0, 0, 0, 100, 0},
                             {0, 0, 1, 10, 50, 5},
                             {3, 4, 1, 0, 20, 0},
                             {3, 4, 1, 0, 19.5, 0}};
  const Instance instances[] = {
      testing::tiny_instance(), random_sites(1, 1),
      random_sites(63, 2),      random_sites(64, 3),
      random_sites(65, 4),      generate_named("C1_10_1"),
      read_solomon(solomon),    Instance("exact", exact, 2, 10.0)};
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (const Instance& inst : instances) {
    long asymmetric = 0, row_mismatch = 0, junction_mismatch = 0;
    long passing = 0;
    for (int i = 0; i < inst.num_sites(); ++i) {
      EXPECT_EQ(bits(inst.distance(i, i)), bits(0.0)) << inst.name();
      const auto row = inst.distance_row(i);
      ASSERT_EQ(row.size(), static_cast<std::size_t>(inst.num_sites()));
      for (int j = 0; j < inst.num_sites(); ++j) {
        asymmetric += bits(inst.distance(i, j)) != bits(inst.distance(j, i));
        row_mismatch += bits(row[static_cast<std::size_t>(j)]) !=
                        bits(inst.distance(j, i));
        junction_mismatch +=
            inst.junction_ok(i, j) != tw_reachable(inst, i, j);
        passing += inst.junction_ok(i, j);
      }
    }
    EXPECT_EQ(asymmetric, 0) << inst.name();
    EXPECT_EQ(row_mismatch, 0) << inst.name();
    EXPECT_EQ(junction_mismatch, 0) << inst.name();
    // Both verdicts occur on every instance past one bitmap word.
    if (inst.num_sites() > 64) {
      EXPECT_GT(passing, 0) << inst.name();
      EXPECT_LT(passing, long{inst.num_sites()} * inst.num_sites())
          << inst.name();
    }
  }
  const Instance& tie = instances[7];
  EXPECT_TRUE(tie.junction_ok(1, 2));
  EXPECT_FALSE(tie.junction_ok(1, 3));
}

TEST(Instance, TriangleInequalityHolds) {
  const Instance inst = testing::tiny_instance();
  for (int i = 0; i < inst.num_sites(); ++i) {
    for (int j = 0; j < inst.num_sites(); ++j) {
      for (int k = 0; k < inst.num_sites(); ++k) {
        EXPECT_LE(inst.distance(i, j),
                  inst.distance(i, k) + inst.distance(k, j) + 1e-12);
      }
    }
  }
}

TEST(Instance, TotalDemandAndFleetBound) {
  const Instance inst = testing::tiny_instance();
  EXPECT_DOUBLE_EQ(inst.total_demand(), 75.0);
  EXPECT_EQ(inst.min_vehicles_by_capacity(), 2);  // ceil(75/60)
}

// Regression: 0.1 + 0.1 + 0.1 = 0.30000000000000004 in binary, so the
// naive ceil(total/capacity) rounded 1.0000000000000002 up to 2 vehicles
// even though one vehicle of capacity 0.3 suffices.  The bound must treat
// quotients within a relative epsilon of an integer as exact.
TEST(Instance, MinVehiclesIsRobustToFloatingPointQuotients) {
  std::vector<Site> sites = {
      {0, 0, 0, 0, 1000, 0},
      {1, 0, 0.1, 0, 100, 1},
      {2, 0, 0.1, 0, 100, 1},
      {3, 0, 0.1, 0, 100, 1},
  };
  const Instance inst("fp", std::move(sites), 3, 0.3);
  EXPECT_EQ(inst.min_vehicles_by_capacity(), 1);

  // The same shape scaled up: 3 * 10 / 30 must stay 1, and a genuinely
  // fractional quotient must still round up.
  std::vector<Site> sites2 = {
      {0, 0, 0, 0, 1000, 0},
      {1, 0, 10, 0, 100, 1},
      {2, 0, 10, 0, 100, 1},
      {3, 0, 10.5, 0, 100, 1},
  };
  const Instance inst2("fp2", std::move(sites2), 3, 30.0);
  EXPECT_EQ(inst2.min_vehicles_by_capacity(), 2);  // ceil(30.5/30)
}

TEST(Instance, ConstructorRejectsEmptySites) {
  EXPECT_THROW(Instance("x", {}, 1, 10.0), std::invalid_argument);
}

TEST(Instance, ConstructorRejectsNonPositiveFleetOrCapacity) {
  std::vector<Site> sites = {{0, 0, 0, 0, 10, 0}};
  EXPECT_THROW(Instance("x", sites, 0, 10.0), std::invalid_argument);
  EXPECT_THROW(Instance("x", sites, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(Instance("x", sites, 1, -5.0), std::invalid_argument);
}

TEST(Instance, ValidateAcceptsGoodInstance) {
  EXPECT_NO_THROW(testing::tiny_instance().validate());
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// A NaN compares false against everything, so each check below must also
// refuse non-finite values outright.
TEST(Instance, ValidateRejectsInvertedWindow) {
  std::vector<Site> sites = {{0, 0, 0, 0, 100, 0},
                             {1, 0, 5, 50, 10, 0}};  // ready > due
  EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
               std::invalid_argument);
  for (const double due : {kInf, -kInf, kNaN}) {
    sites[1] = {1, 0, 5, 0, due, 0};
    EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
                 std::invalid_argument)
        << due;
  }
  for (const double ready : {kInf, -kInf, kNaN}) {
    sites[1] = {1, 0, 5, ready, 10, 0};
    EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
                 std::invalid_argument)
        << ready;
  }
}

TEST(Instance, ValidateRejectsDemandOverCapacity) {
  std::vector<Site> sites = {{0, 0, 0, 0, 100, 0},
                             {1, 0, 500, 0, 10, 0}};
  EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
               std::invalid_argument);
  for (const double demand : {kInf, kNaN}) {
    sites[1] = {1, 0, demand, 0, 10, 0};
    EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
                 std::invalid_argument)
        << demand;
  }
  // An infinite or NaN capacity passes the constructor's positivity test.
  sites[1] = {1, 0, 5, 0, 10, 0};
  for (const double capacity : {kInf, kNaN}) {
    EXPECT_THROW(Instance("x", sites, 2, capacity).validate(),
                 std::invalid_argument)
        << capacity;
  }
}

TEST(Instance, ValidateRejectsDepotWithDemand) {
  std::vector<Site> sites = {{0, 0, 3, 0, 100, 0}, {1, 0, 5, 0, 10, 0}};
  EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
               std::invalid_argument);
  for (const double demand : {kInf, kNaN}) {
    sites[0] = {0, 0, demand, 0, 100, 0};
    EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
                 std::invalid_argument)
        << demand;
  }
}

TEST(Instance, ValidateRejectsFleetTooSmallForTotalDemand) {
  std::vector<Site> sites = {{0, 0, 0, 0, 100, 0},
                             {1, 0, 80, 0, 10, 0},
                             {2, 0, 80, 0, 10, 0},
                             {3, 0, 80, 0, 10, 0}};
  const Instance inst("x", std::move(sites), 2, 100.0);  // 240 > 200
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Instance, ValidateRejectsNegativeDemandOrService) {
  std::vector<Site> sites = {{0, 0, 0, 0, 100, 0},
                             {1, 0, -1, 0, 10, 0}};
  EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
               std::invalid_argument);
  sites[1] = {1, 0, 1, 0, 10, -2};
  EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
               std::invalid_argument);
  sites[1] = {1, 0, -kInf, 0, 10, 0};
  EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
               std::invalid_argument);
  for (const double service : {kInf, -kInf, kNaN}) {
    sites[1] = {1, 0, 1, 0, 10, service};
    EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
                 std::invalid_argument)
        << service;
  }
}

TEST(Instance, ValidateRejectsNonFiniteCoordinates) {
  for (const double v : {kInf, -kInf, kNaN}) {
    for (const int site : {0, 1}) {
      std::vector<Site> sites = {{0, 0, 0, 0, 100, 0}, {1, 0, 5, 0, 10, 0}};
      sites[static_cast<std::size_t>(site)].x = v;
      EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
                   std::invalid_argument)
          << "x of site " << site << " = " << v;
      sites[static_cast<std::size_t>(site)].x = 0;
      sites[static_cast<std::size_t>(site)].y = v;
      EXPECT_THROW(Instance("x", sites, 2, 100.0).validate(),
                   std::invalid_argument)
          << "y of site " << site << " = " << v;
    }
  }
}

}  // namespace
}  // namespace tsmo
