#include "vrptw/generator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "construct/i1_insertion.hpp"
#include "util/stats.hpp"

namespace tsmo {
namespace {

TEST(Generator, DeterministicForSameConfig) {
  GeneratorConfig cfg;
  cfg.num_customers = 50;
  cfg.seed = 99;
  const Instance a = generate_instance(cfg);
  const Instance b = generate_instance(cfg);
  ASSERT_EQ(a.num_sites(), b.num_sites());
  for (int i = 0; i < a.num_sites(); ++i) {
    EXPECT_EQ(a.site(i).x, b.site(i).x);
    EXPECT_EQ(a.site(i).ready, b.site(i).ready);
    EXPECT_EQ(a.site(i).due, b.site(i).due);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorConfig cfg;
  cfg.num_customers = 50;
  cfg.seed = 1;
  const Instance a = generate_instance(cfg);
  cfg.seed = 2;
  const Instance b = generate_instance(cfg);
  int same = 0;
  for (int i = 1; i < a.num_sites(); ++i) {
    if (a.site(i).x == b.site(i).x) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Generator, RejectsBadConfig) {
  GeneratorConfig cfg;
  cfg.num_customers = 0;
  EXPECT_THROW(generate_instance(cfg), std::invalid_argument);
  cfg.num_customers = 10;
  cfg.tw_density = 1.5;
  EXPECT_THROW(generate_instance(cfg), std::invalid_argument);
}

TEST(Generator, PaperFleetConvention) {
  // R = N/4: 25 vehicles for 100 cities, 100 for 400 (paper §II.A).
  EXPECT_EQ(generate_named("R1_1_1").max_vehicles(), 25);
  EXPECT_EQ(generate_named("R1_4_1").max_vehicles(), 100);
  EXPECT_EQ(generate_named("R1_6_1").max_vehicles(), 150);
}

TEST(Generator, CapacityConvention) {
  EXPECT_EQ(generate_named("R1_1_1").capacity(), 200.0);
  EXPECT_EQ(generate_named("R2_1_1").capacity(), 700.0);
  EXPECT_EQ(generate_named("C2_1_1").capacity(), 700.0);
}

TEST(Generator, ServiceTimesFollowSolomonConvention) {
  const Instance r = generate_named("R1_1_1");
  const Instance c = generate_named("C1_1_1");
  EXPECT_EQ(r.site(1).service, 10.0);
  EXPECT_EQ(c.site(1).service, 90.0);
}

TEST(Generator, GeneratedInstancesValidate) {
  for (const char* name :
       {"R1_1_1", "R2_1_1", "C1_1_1", "C2_1_1", "RC1_1_1", "RC2_1_1"}) {
    EXPECT_NO_THROW(generate_named(name).validate()) << name;
  }
}

TEST(Generator, InstanceCarriesRequestedName) {
  EXPECT_EQ(generate_named("R1_1_1").name(), "R1_1_1");
  EXPECT_EQ(generate_named("RC2_4_3").name(), "RC2_4_3");
}

TEST(Generator, ClusteredInstancesAreMoreConcentrated) {
  // Mean nearest-neighbour distance should be clearly smaller for C than R.
  auto mean_nn = [](const Instance& inst) {
    RunningStats s;
    for (int i = 1; i <= inst.num_customers(); ++i) {
      double best = 1e300;
      for (int j = 1; j <= inst.num_customers(); ++j) {
        if (i != j) best = std::min(best, inst.distance(i, j));
      }
      s.add(best);
    }
    return s.mean();
  };
  const double r = mean_nn(generate_named("R1_1_1"));
  const double c = mean_nn(generate_named("C1_1_1"));
  EXPECT_LT(c, r * 0.8);
}

TEST(Generator, Type2WindowsAreWider) {
  auto mean_width = [](const Instance& inst) {
    RunningStats s;
    for (int i = 1; i <= inst.num_customers(); ++i) {
      s.add(inst.site(i).due - inst.site(i).ready);
    }
    return s.mean();
  };
  EXPECT_GT(mean_width(generate_named("R2_1_1")),
            2.0 * mean_width(generate_named("R1_1_1")));
}

TEST(Generator, FieldScalesWithSqrtN) {
  const Instance small = generate_named("R1_1_1");
  const Instance large = generate_named("R1_4_1");
  double max_small = 0, max_large = 0;
  for (int i = 1; i <= small.num_customers(); ++i) {
    max_small = std::max(max_small, small.site(i).x);
  }
  for (int i = 1; i <= large.num_customers(); ++i) {
    max_large = std::max(max_large, large.site(i).x);
  }
  EXPECT_NEAR(max_large / max_small, 2.0, 0.3);  // sqrt(400/100)
}

TEST(Generator, FeasibleSolutionExists) {
  // The windows are anchored on seed-route arrivals, so I1 construction
  // (hard-window checks) should reach zero tardiness.
  for (const char* name : {"R1_1_1", "C1_1_2", "RC2_1_1"}) {
    const Instance inst = generate_named(name);
    Rng rng(5);
    const Solution s = construct_i1_random(inst, rng);
    EXPECT_DOUBLE_EQ(s.objectives().tardiness, 0.0) << name;
    EXPECT_DOUBLE_EQ(s.capacity_violation(), 0.0) << name;
    EXPECT_NO_THROW(s.validate()) << name;
  }
}

TEST(ParseInstanceName, ParsesClasses) {
  EXPECT_EQ(parse_instance_name("R1_4_1").spatial, SpatialClass::Random);
  EXPECT_EQ(parse_instance_name("C1_4_1").spatial, SpatialClass::Clustered);
  EXPECT_EQ(parse_instance_name("RC1_4_1").spatial, SpatialClass::Mixed);
  EXPECT_EQ(parse_instance_name("r2_2_1").horizon, HorizonClass::Long);
  EXPECT_EQ(parse_instance_name("C1_6_2").num_customers, 600);
}

TEST(ParseInstanceName, OrdinalChangesSeedAndDensity) {
  const GeneratorConfig a = parse_instance_name("R1_4_1");
  const GeneratorConfig b = parse_instance_name("R1_4_2");
  EXPECT_NE(a.seed, b.seed);
  EXPECT_EQ(a.tw_density, 1.0);
  EXPECT_EQ(b.tw_density, 0.75);
  EXPECT_EQ(parse_instance_name("R1_4_5").tw_density, 1.0);  // cycles
}

TEST(ParseInstanceName, ClassesDecorrelated) {
  EXPECT_NE(parse_instance_name("R1_4_1").seed,
            parse_instance_name("C1_4_1").seed);
  EXPECT_NE(parse_instance_name("R1_4_1").seed,
            parse_instance_name("R2_4_1").seed);
}

TEST(ParseInstanceName, RejectsMalformedNames) {
  // R1_21474837_1: 100 × size would overflow int.
  for (const char* bad : {"X1_4_1", "R3_4_1", "R1-4-1", "R1_4", "R1_a_1",
                          "R1_4_x", "R1_0_1", "R1_4_0", "R1_21474837_1",
                          ""}) {
    EXPECT_THROW(parse_instance_name(bad), std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace tsmo
