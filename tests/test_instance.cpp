#include "vrptw/instance.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>

#include "test_support.hpp"
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

// I1's insertion columns and the candidate lists read t(j, i) from row i
// (Instance::distance_row), so T must be symmetric bit for bit, not
// within a tolerance: checked on the hand-built instance, a generated
// 1000-customer clustered one and a Solomon-parsed one.
TEST(Instance, DistanceMatrixIsSymmetricWithZeroDiagonal) {
  std::stringstream solomon;
  write_solomon(solomon, generate_named("RC2_2_1"));
  const Instance instances[] = {testing::tiny_instance(),
                                generate_named("C1_10_1"),
                                read_solomon(solomon)};
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (const Instance& inst : instances) {
    long asymmetric = 0, row_mismatch = 0;
    for (int i = 0; i < inst.num_sites(); ++i) {
      EXPECT_EQ(bits(inst.distance(i, i)), bits(0.0)) << inst.name();
      const auto row = inst.distance_row(i);
      ASSERT_EQ(row.size(), static_cast<std::size_t>(inst.num_sites()));
      for (int j = 0; j < inst.num_sites(); ++j) {
        asymmetric += bits(inst.distance(i, j)) != bits(inst.distance(j, i));
        row_mismatch += bits(row[static_cast<std::size_t>(j)]) !=
                        bits(inst.distance(j, i));
      }
    }
    EXPECT_EQ(asymmetric, 0) << inst.name();
    EXPECT_EQ(row_mismatch, 0) << inst.name();
  }
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

TEST(Instance, ValidateRejectsInvertedWindow) {
  std::vector<Site> sites = {{0, 0, 0, 0, 100, 0},
                             {1, 0, 5, 50, 10, 0}};  // ready > due
  const Instance inst("x", std::move(sites), 2, 100.0);
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Instance, ValidateRejectsDemandOverCapacity) {
  std::vector<Site> sites = {{0, 0, 0, 0, 100, 0},
                             {1, 0, 500, 0, 10, 0}};
  const Instance inst("x", std::move(sites), 2, 100.0);
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Instance, ValidateRejectsDepotWithDemand) {
  std::vector<Site> sites = {{0, 0, 3, 0, 100, 0}, {1, 0, 5, 0, 10, 0}};
  const Instance inst("x", std::move(sites), 2, 100.0);
  EXPECT_THROW(inst.validate(), std::invalid_argument);
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
}

}  // namespace
}  // namespace tsmo
