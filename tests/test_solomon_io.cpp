#include "vrptw/solomon_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

constexpr const char* kSampleText = R"(R101

VEHICLE
NUMBER     CAPACITY
  25         200

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME  DUE DATE   SERVICE TIME

    0      35         35          0          0       230          0
    1      41         49         10        161       171         10
    2      35         17          7         50        60         10
)";

TEST(SolomonIo, ParsesSampleInstance) {
  std::istringstream is(kSampleText);
  const Instance inst = read_solomon(is);
  EXPECT_EQ(inst.name(), "R101");
  EXPECT_EQ(inst.max_vehicles(), 25);
  EXPECT_EQ(inst.capacity(), 200.0);
  EXPECT_EQ(inst.num_customers(), 2);
  EXPECT_EQ(inst.depot().x, 35.0);
  EXPECT_EQ(inst.site(1).ready, 161.0);
  EXPECT_EQ(inst.site(2).service, 10.0);
  EXPECT_NO_THROW(inst.validate());
}

TEST(SolomonIo, RoundTripPreservesEverything) {
  const Instance original = generate_named("RC1_1_2");
  std::stringstream buf;
  write_solomon(buf, original);
  const Instance parsed = read_solomon(buf);
  EXPECT_EQ(parsed.name(), original.name());
  EXPECT_EQ(parsed.max_vehicles(), original.max_vehicles());
  EXPECT_EQ(parsed.capacity(), original.capacity());
  ASSERT_EQ(parsed.num_sites(), original.num_sites());
  for (int i = 0; i < original.num_sites(); ++i) {
    EXPECT_NEAR(parsed.site(i).x, original.site(i).x, 0.01);
    EXPECT_NEAR(parsed.site(i).y, original.site(i).y, 0.01);
    EXPECT_NEAR(parsed.site(i).demand, original.site(i).demand, 0.01);
    EXPECT_NEAR(parsed.site(i).ready, original.site(i).ready, 0.01);
    EXPECT_NEAR(parsed.site(i).due, original.site(i).due, 0.01);
    EXPECT_NEAR(parsed.site(i).service, original.site(i).service, 0.01);
  }
}

TEST(SolomonIo, FileRoundTrip) {
  const Instance original = generate_named("C1_1_3");
  const std::string path = ::testing::TempDir() + "/tsmo_c113.txt";
  write_solomon_file(path, original);
  const Instance parsed = read_solomon_file(path);
  EXPECT_EQ(parsed.num_customers(), original.num_customers());
  EXPECT_NEAR(parsed.distance(1, 2), original.distance(1, 2), 0.05);
}

TEST(SolomonIo, MissingNameThrows) {
  std::istringstream is("   \n  \n");
  EXPECT_THROW(read_solomon(is), std::runtime_error);
}

TEST(SolomonIo, MissingVehicleRowThrows) {
  std::istringstream is("NAME\nVEHICLE\nNUMBER CAPACITY\n");
  EXPECT_THROW(read_solomon(is), std::runtime_error);
}

TEST(SolomonIo, WrongFieldCountThrows) {
  std::istringstream is(
      "N\n 5 100\n 0 0 0 0 0 100 0\n 1 2 3 4\n");
  EXPECT_THROW(read_solomon(is), std::runtime_error);
}

TEST(SolomonIo, NonConsecutiveIdsThrow) {
  std::istringstream is(
      "N\n 5 100\n 0 0 0 0 0 100 0\n 2 1 1 1 0 10 0\n");
  EXPECT_THROW(read_solomon(is), std::runtime_error);
}

TEST(SolomonIo, NoCustomersThrows) {
  std::istringstream is("N\n 5 100\n");
  EXPECT_THROW(read_solomon(is), std::runtime_error);
}

TEST(SolomonIo, VehicleNumberOutsideIntRangeThrows) {
  // Converting these to int would be undefined; the parser rejects them.
  for (const char* vehicles : {"1e30", "-5", "0", "2.5", "nan", "inf"}) {
    std::istringstream is(std::string("N\n ") + vehicles +
                          " 100\n 0 0 0 0 0 100 0\n 1 1 1 1 0 10 0\n");
    EXPECT_THROW(read_solomon(is), std::runtime_error) << vehicles;
  }
}

TEST(SolomonIo, NonFiniteRowsThrow) {
  // The parser reads these numbers; validation refuses them before an
  // engine sees them (an inf due sent I1's seed rule out of bounds).
  for (const char* row :
       {" 1 inf 1 1 0 10 0", " 1 1 nan 1 0 10 0", " 1 1 1 inf 0 10 0",
        " 1 1 1 1 nan 10 0", " 1 1 1 1 0 inf 0", " 1 1 1 1 0 nan 0",
        " 1 1 1 1 0 10 inf"}) {
    std::istringstream is(std::string("N\n 5 100\n 0 0 0 0 0 100 0\n") +
                          row + "\n");
    EXPECT_THROW(read_solomon(is), std::invalid_argument) << row;
  }
  std::istringstream depot("N\n 5 100\n 0 0 0 0 0 inf 0\n 1 1 1 1 0 10 0\n");
  EXPECT_THROW(read_solomon(depot), std::invalid_argument);
}

TEST(SolomonIo, CustomerIdOutsideIntRangeThrows) {
  std::istringstream is(
      "N\n 5 100\n 0 0 0 0 0 100 0\n 1e30 1 1 1 0 10 0\n");
  EXPECT_THROW(read_solomon(is), std::runtime_error);
}

TEST(SolomonIo, LimitsBoundCustomersAndVehicles) {
  // kSampleText: 2 customers, 25 vehicles.
  std::istringstream at_limits(kSampleText);
  EXPECT_EQ(read_solomon(at_limits, {2, 25}).num_customers(), 2);
  std::istringstream too_many_customers(kSampleText);
  EXPECT_THROW(read_solomon(too_many_customers, {1, 25}),
               std::runtime_error);
  std::istringstream too_many_vehicles(kSampleText);
  EXPECT_THROW(read_solomon(too_many_vehicles, {2, 24}), std::runtime_error);
}

TEST(SolomonIo, MissingFileThrows) {
  EXPECT_THROW(read_solomon_file("/nonexistent/path/foo.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace tsmo
