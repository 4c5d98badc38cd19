#include "construct/i1_insertion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "test_support.hpp"
#include "vrptw/generator.hpp"
#include "vrptw/schedule.hpp"

namespace tsmo {
namespace {

// ---------------------------------------------------------------------
// Oracle for the differential tests below: the per-customer I1 growth
// loop, which re-scans every unrouted customer at every position after
// every insertion.  Its slack test is a private scalar copy of
// insertion_keeps_schedule, so the oracle shares no arithmetic with the
// column pass under test.
namespace legacy {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool keeps_schedule(const Instance& inst, std::span<const int> route,
                    const RouteSchedule& schedule, int c,
                    std::size_t position) {
  assert(position <= route.size());
  assert(schedule.size() == route.size());
  const Site& site = inst.site(c);

  const int pred = position > 0 ? route[position - 1] : 0;
  const double depart_pred =
      position > 0 ? schedule.departure[position - 1] : 0.0;
  const double arrival_c = depart_pred + inst.distance(pred, c);
  if (arrival_c > site.due) return false;  // the insert itself is late
  const double departure_c =
      std::max(arrival_c, site.ready) + site.service;

  if (position == route.size()) {
    const double new_return = departure_c + inst.distance(c, 0);
    const double delay = new_return - schedule.depot_return;
    return delay <= schedule.forward_slack[position];
  }
  const int succ = route[position];
  const double new_arrival_succ = departure_c + inst.distance(c, succ);
  const double delay = new_arrival_succ - schedule.arrival[position];
  return delay <= schedule.forward_slack[position];
}

/// Best feasible insertion of `u` into `route` under the I1 c1 criterion.
/// Returns the c1 value and writes the position; kInf when infeasible.
/// Feasibility per position is O(1) via the route's forward time slack;
/// I1 keeps routes tardiness-free, so "adds no new lateness" is exactly
/// the classic hard-window insertion check.
double best_insertion(const Instance& inst, const I1Params& p,
                      const std::vector<int>& route,
                      const RouteSchedule& sched, double load, int u,
                      int* best_pos) {
  const Site& su = inst.site(u);
  if (load + su.demand > inst.capacity()) return kInf;
  double best = kInf;
  const int n = static_cast<int>(route.size());
  for (int pos = 0; pos <= n; ++pos) {
    if (!keeps_schedule(inst, route, sched, u,
                        static_cast<std::size_t>(pos))) {
      continue;
    }
    const int i = pos > 0 ? route[static_cast<std::size_t>(pos - 1)] : 0;
    const int j = pos < n ? route[static_cast<std::size_t>(pos)] : 0;
    const double detour = inst.distance(i, u) + inst.distance(u, j) -
                          p.mu * inst.distance(i, j);
    // Delay of the successor's begin-of-service caused by the insertion
    // (Solomon's c12); zero when u is appended at the end.
    double delay = 0.0;
    if (pos < n) {
      const double depart_pred =
          pos > 0 ? sched.departure[static_cast<std::size_t>(pos - 1)]
                  : 0.0;
      const double begin_u =
          std::max(depart_pred + inst.distance(i, u), su.ready);
      const double new_begin_succ =
          std::max(begin_u + su.service + inst.distance(u, j),
                   inst.site(j).ready);
      delay = new_begin_succ - sched.begin[static_cast<std::size_t>(pos)];
    }
    const double c1 = p.alpha1 * detour + (1.0 - p.alpha1) * delay;
    if (c1 < best) {
      best = c1;
      *best_pos = pos;
    }
  }
  return best;
}

/// Fallback when the fleet is exhausted: cheapest capacity-feasible detour
/// over all routes, ignoring time windows (search handles soft windows).
void force_insert(const Instance& inst, std::vector<std::vector<int>>& routes,
                  std::vector<double>& loads, int u) {
  double best = kInf;
  std::size_t best_r = 0;
  int best_pos = 0;
  for (std::size_t r = 0; r < routes.size(); ++r) {
    if (loads[r] + inst.site(u).demand > inst.capacity()) continue;
    const auto& route = routes[r];
    for (int pos = 0; pos <= static_cast<int>(route.size()); ++pos) {
      const int i = pos > 0 ? route[static_cast<std::size_t>(pos - 1)] : 0;
      const int j = pos < static_cast<int>(route.size())
                        ? route[static_cast<std::size_t>(pos)]
                        : 0;
      const double detour =
          inst.distance(i, u) + inst.distance(u, j) - inst.distance(i, j);
      if (detour < best) {
        best = detour;
        best_r = r;
        best_pos = pos;
      }
    }
  }
  // Instance::validate guarantees total demand fits the fleet, but
  // fragmentation can still strand a customer; overload the emptiest
  // route rather than lose the customer (capacity violation is measured).
  if (best == kInf) {
    best_r = static_cast<std::size_t>(
        std::min_element(loads.begin(), loads.end()) - loads.begin());
    best_pos = static_cast<int>(routes[best_r].size());
  }
  routes[best_r].insert(routes[best_r].begin() + best_pos, u);
  loads[best_r] += inst.site(u).demand;
}

Solution construct_i1(const Instance& inst, const I1Params& params) {
  const int n = inst.num_customers();
  std::vector<bool> routed(static_cast<std::size_t>(n) + 1, false);
  int unrouted = n;

  std::vector<std::vector<int>> routes;
  std::vector<double> loads;

  while (unrouted > 0 &&
         static_cast<int>(routes.size()) < inst.max_vehicles()) {
    // --- Seed the new route. ---
    int seed = -1;
    double best_key = -kInf;
    for (int u = 1; u <= n; ++u) {
      if (routed[static_cast<std::size_t>(u)]) continue;
      const double key = params.seed_farthest ? inst.distance(0, u)
                                              : -inst.site(u).due;
      if (key > best_key) {
        best_key = key;
        seed = u;
      }
    }
    std::vector<int> route{seed};
    double load = inst.site(seed).demand;
    routed[static_cast<std::size_t>(seed)] = true;
    --unrouted;

    // --- Grow the route until no feasible insertion remains. ---
    while (unrouted > 0) {
      const RouteSchedule sched = RouteSchedule::compute(inst, route);
      int chosen = -1, chosen_pos = 0;
      double best_c2 = -kInf;
      for (int u = 1; u <= n; ++u) {
        if (routed[static_cast<std::size_t>(u)]) continue;
        int pos = 0;
        const double c1 =
            best_insertion(inst, params, route, sched, load, u, &pos);
        if (c1 == kInf) continue;
        const double c2 = params.lambda * inst.distance(0, u) - c1;
        if (c2 > best_c2) {
          best_c2 = c2;
          chosen = u;
          chosen_pos = pos;
        }
      }
      if (chosen < 0) break;
      route.insert(route.begin() + chosen_pos, chosen);
      load += inst.site(chosen).demand;
      routed[static_cast<std::size_t>(chosen)] = true;
      --unrouted;
    }
    routes.push_back(std::move(route));
    loads.push_back(load);
  }

  // Fleet exhausted with customers left: force them in (soft windows).
  for (int u = 1; u <= n && unrouted > 0; ++u) {
    if (routed[static_cast<std::size_t>(u)]) continue;
    force_insert(inst, routes, loads, u);
    routed[static_cast<std::size_t>(u)] = true;
    --unrouted;
  }
  return Solution::from_routes(inst, std::move(routes));
}

}  // namespace legacy

/// Expects construct_i1 to build exactly the oracle's routes.
void expect_same_routes(const Instance& inst, const I1Params& p,
                        const std::string& what) {
  const Solution want = legacy::construct_i1(inst, p);
  const Solution got = construct_i1(inst, p);
  ASSERT_EQ(got.num_routes(), want.num_routes()) << what;
  for (int r = 0; r < want.num_routes(); ++r) {
    ASSERT_EQ(got.route(r), want.route(r)) << what << " route " << r;
  }
}

std::string describe(const Instance& inst, const I1Params& p) {
  return inst.name() + " lambda=" + std::to_string(p.lambda) +
         " mu=" + std::to_string(p.mu) +
         " alpha1=" + std::to_string(p.alpha1) +
         (p.seed_farthest ? " farthest" : " earliest-due");
}

class I1Test : public ::testing::TestWithParam<const char*> {};

TEST_P(I1Test, RoutesEveryCustomerExactlyOnce) {
  const Instance inst = generate_named(GetParam());
  Rng rng(1);
  const Solution s = construct_i1_random(inst, rng);
  EXPECT_NO_THROW(s.validate());
}

TEST_P(I1Test, ProducesFeasibleSolution) {
  const Instance inst = generate_named(GetParam());
  Rng rng(2);
  const Solution s = construct_i1_random(inst, rng);
  EXPECT_DOUBLE_EQ(s.objectives().tardiness, 0.0);
  EXPECT_DOUBLE_EQ(s.capacity_violation(), 0.0);
  EXPECT_LE(s.vehicles_used(), inst.max_vehicles());
  EXPECT_GE(s.vehicles_used(), inst.min_vehicles_by_capacity());
}

INSTANTIATE_TEST_SUITE_P(Instances, I1Test,
                         ::testing::Values("R1_1_1", "R2_1_1", "C1_1_1",
                                           "C2_1_1", "RC1_1_1", "RC2_1_3"));

TEST(I1, DeterministicForFixedParams) {
  const Instance inst = generate_named("R1_1_1");
  const I1Params p{1.5, 1.0, 0.6, true};
  const Solution a = construct_i1(inst, p);
  const Solution b = construct_i1(inst, p);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.objectives(), b.objectives());
}

TEST(I1, SeedRuleChangesConstruction) {
  const Instance inst = generate_named("R1_1_1");
  I1Params far{1.5, 1.0, 0.6, true};
  I1Params due = far;
  due.seed_farthest = false;
  EXPECT_NE(construct_i1(inst, far).hash(),
            construct_i1(inst, due).hash());
}

TEST(I1, RandomParamsAreInDocumentedRanges) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const I1Params p = random_i1_params(rng);
    EXPECT_GE(p.lambda, 1.0);
    EXPECT_LE(p.lambda, 2.0);
    EXPECT_GE(p.mu, 0.5);
    EXPECT_LE(p.mu, 1.5);
    EXPECT_GE(p.alpha1, 0.0);
    EXPECT_LE(p.alpha1, 1.0);
  }
}

TEST(I1, DifferentRandomDrawsDiversify) {
  const Instance inst = generate_named("R1_1_1");
  Rng rng(4);
  const Solution a = construct_i1_random(inst, rng);
  const Solution b = construct_i1_random(inst, rng);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(I1, TinyInstance) {
  const Instance inst = testing::tiny_instance();
  const Solution s = construct_i1(inst, I1Params{});
  EXPECT_NO_THROW(s.validate());
  EXPECT_DOUBLE_EQ(s.objectives().tardiness, 0.0);
}

TEST(I1, TightFleetStillRoutesEveryone) {
  // 6 customers, demand 1 each, only 1 vehicle of ample capacity: one tour.
  const Instance inst = testing::line_instance(6, /*max_vehicles=*/1);
  const Solution s = construct_i1(inst, I1Params{});
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.vehicles_used(), 1);
}

// The column pass reproduces the per-customer scan bit for bit on every
// Homberger class and size the benchmarks run, over random parameter draws.
TEST(I1Differential, MatchesLegacyScanOnHombergerClasses) {
  Rng rng(2024);
  for (const char* cls : {"R1", "R2", "C1", "C2", "RC1", "RC2"}) {
    for (const int hundreds : {1, 2, 4, 10}) {
      const Instance inst = generate_named(
          std::string(cls) + "_" + std::to_string(hundreds) + "_1");
      const int draws = hundreds == 10 ? 1 : 4;
      for (int d = 0; d < draws; ++d) {
        const I1Params p = random_i1_params(rng);
        expect_same_routes(inst, p, describe(inst, p));
      }
    }
  }
}

// Partial window densities mix tight windows with full-horizon ones, so
// waiting absorbs a delay at some suffix columns and not at others.
TEST(I1Differential, MatchesLegacyScanAcrossWindowDensities) {
  Rng rng(77);
  for (const auto spatial : {SpatialClass::Random, SpatialClass::Clustered,
                             SpatialClass::Mixed}) {
    for (const auto horizon : {HorizonClass::Short, HorizonClass::Long}) {
      for (const double density : {0.25, 0.5, 1.0}) {
        GeneratorConfig cfg;
        cfg.num_customers = 150;
        cfg.spatial = spatial;
        cfg.horizon = horizon;
        cfg.tw_density = density;
        cfg.seed = 5;
        const Instance inst = generate_instance(cfg);
        for (int d = 0; d < 3; ++d) {
          const I1Params p = random_i1_params(rng);
          expect_same_routes(inst, p,
                             describe(inst, p) + " density=" +
                                 std::to_string(density));
        }
      }
    }
  }
}

// A fleet smaller than the routes I1 grows with the full fleet ends route
// growth early and sends the remaining customers through force_insert.
TEST(I1Differential, MatchesLegacyScanWithTightFleets) {
  Rng rng(5);
  for (const char* name : {"R1_2_1", "C2_2_1", "RC1_2_2"}) {
    const Instance full = generate_named(name);
    const I1Params p = random_i1_params(rng);
    const int grown = construct_i1(full, p).vehicles_used();
    for (const int fleet : {grown - 1, std::max(1, grown / 2)}) {
      const Instance inst(full.name() + "/R=" + std::to_string(fleet),
                          full.sites(), fleet, full.capacity());
      expect_same_routes(inst, p, describe(inst, p));
    }
  }
}

// Integer coordinates with duplicates and collinear runs, zero service
// times and the parameter corners (alpha1 in {0, 1}, mu = 1) give c1 and
// c2 ties and detours and slacks that are exactly zero, where tie order
// and the bitwise column key decide.
TEST(I1Differential, MatchesLegacyScanOnTiesAndZeroSlack) {
  Rng rng(31);
  std::vector<Instance> instances;
  for (const int size : {24, 60}) {
    std::vector<Site> sites = {{0, 0, 0, 0, 400, 0}};
    for (int c = 1; c <= size; ++c) {
      // Points on three lines through the depot, each visited twice.
      const double step = static_cast<double>((c + 1) / 2 % 7 + 1);
      const double x = c % 3 == 0 ? step : (c % 3 == 1 ? -step : 0.0);
      const double y = c % 3 == 2 ? step : (c % 3 == 0 ? step : 0.0);
      const double ready = static_cast<double>(rng.below(4) * 10);
      const double due = ready + static_cast<double>(10 + rng.below(3) * 40);
      sites.push_back({x, y, static_cast<double>(1 + rng.below(3)), ready,
                       due, 0.0});
    }
    instances.emplace_back("ties" + std::to_string(size), std::move(sites),
                           size, 10.0);
  }
  instances.push_back(testing::line_instance(12, 2, 7));
  instances.push_back(testing::tiny_instance());
  for (const Instance& inst : instances) {
    for (const double alpha1 : {0.0, 1.0, 0.5}) {
      for (const double lambda : {1.0, 2.0}) {
        for (const bool farthest : {true, false}) {
          I1Params p;
          p.alpha1 = alpha1;
          p.mu = 1.0;
          p.lambda = lambda;
          p.seed_farthest = farthest;
          expect_same_routes(inst, p, describe(inst, p));
        }
      }
    }
  }
}

TEST(NearestNeighbor, RoutesEveryCustomerFeasibly) {
  for (const char* name : {"R1_1_1", "C2_1_1"}) {
    const Instance inst = generate_named(name);
    Rng rng(5);
    const Solution s = construct_nearest_neighbor(inst, rng);
    EXPECT_NO_THROW(s.validate()) << name;
    EXPECT_DOUBLE_EQ(s.capacity_violation(), 0.0) << name;
    EXPECT_LE(s.vehicles_used(), inst.max_vehicles()) << name;
  }
}

TEST(NearestNeighbor, GenerallyWorseOrEqualToI1) {
  // Not a strict theorem, but I1 should win clearly on a clustered
  // instance; guard the comparison loosely.
  const Instance inst = generate_named("C1_1_1");
  Rng rng(6);
  const Solution i1 = construct_i1_random(inst, rng);
  const Solution nn = construct_nearest_neighbor(inst, rng);
  EXPECT_LT(i1.objectives().distance, nn.objectives().distance * 1.5);
}

}  // namespace
}  // namespace tsmo
