// Degenerate and boundary-condition coverage across the stack: one-customer
// instances, extreme generator densities, saturated fleets, and operators
// on minimal routes.

#include <gtest/gtest.h>

#include <sstream>

#include "construct/i1_insertion.hpp"
#include "core/sequential_tsmo.hpp"
#include "harness/job_runner.hpp"
#include "operators/neighborhood.hpp"
#include "parallel/async_tsmo.hpp"
#include "parallel/hybrid_tsmo.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "sim/sim_tsmo.hpp"
#include "util/json.hpp"
#include "vrptw/generator.hpp"
#include "vrptw/solomon_io.hpp"

namespace tsmo {
namespace {

Instance one_customer_instance(int vehicles = 2) {
  std::vector<Site> sites = {{0, 0, 0, 0, 1000, 0},
                             {5, 0, 3, 0, 100, 2}};
  return Instance("one", std::move(sites), vehicles, 10);
}

/// Two customers 100 from the depot, each due at 10: no junction can meet
/// a window, so the screen passes no proposal.
Instance unreachable_instance() {
  std::vector<Site> sites = {{0, 0, 0, 0, 1000, 0},
                             {100, 0, 1, 0, 10, 0},
                             {0, 100, 1, 0, 10, 0}};
  return Instance("unreachable", std::move(sites), 2, 100);
}

TEST(EdgeCases, OneCustomerConstruction) {
  const Instance inst = one_customer_instance();
  Rng rng(1);
  const Solution s = construct_i1_random(inst, rng);
  EXPECT_EQ(s.vehicles_used(), 1);
  EXPECT_DOUBLE_EQ(s.objectives().distance, 10.0);
  EXPECT_TRUE(s.feasible());
}

TEST(EdgeCases, OneCustomerSearchTerminates) {
  // With two vehicles, relocating the customer to the empty route is the
  // sole move family; with one vehicle no move exists at all.
  for (int vehicles : {2, 1}) {
    const Instance inst = one_customer_instance(vehicles);
    TsmoParams p;
    p.max_evaluations = 200;
    p.neighborhood_size = 10;
    p.seed = 2;
    const RunResult r = SequentialTsmo(inst, p).run();
    // The only structure possible: one route with the single customer.
    ASSERT_FALSE(r.front.empty()) << vehicles;
    EXPECT_DOUBLE_EQ(r.front[0].distance, 10.0) << vehicles;
  }
}

/// When no proposal ever passes the screen, the budget is never spent:
/// every engine must still end, once `restart_after` consecutive steps
/// had an empty pool.
TEST(EdgeCases, EmptyNeighborhoodEndsEveryEngine) {
  for (const Instance& inst : {one_customer_instance(1),
                               unreachable_instance()}) {
    TsmoParams p;
    p.max_evaluations = 500;
    p.neighborhood_size = 10;
    p.restart_after = 20;
    p.seed = 3;
    const CostModel cost = CostModel::for_instance(inst);
    std::vector<RunResult> runs;
    for (bool deterministic : {false, true}) {
      ParallelOptions options;
      options.deterministic = deterministic;
      runs.push_back(SyncTsmo(inst, p, 3, options).run());
      runs.push_back(AsyncTsmo(inst, p, 3, options).run());
      runs.push_back(MultisearchTsmo(inst, p, 3, options).run().merged);
      runs.push_back(HybridTsmo(inst, p, 2, 2, options).run().merged);
    }
    runs.push_back(run_sim_sequential(inst, p, cost));
    runs.push_back(run_sim_sync(inst, p, 3, cost));
    runs.push_back(run_sim_async(inst, p, 3, cost));
    runs.push_back(run_sim_multisearch(inst, p, 3, cost).merged);
    runs.push_back(run_sim_hybrid(inst, p, 2, 2, cost).merged);
    for (const RunResult& r : runs) {
      EXPECT_FALSE(r.front.empty()) << inst.name() << " " << r.algorithm;
      // At most three searchers, each ending about restart_after steps
      // after its last non-empty pool.
      EXPECT_LT(r.iterations, 10 * p.restart_after)
          << inst.name() << " " << r.algorithm;
    }

    std::ostringstream text;
    write_solomon(text, inst);
    for (const char* algorithm : {"seq", "sync", "async", "coll", "hybrid"}) {
      const obs::JobOutcome job = run_job_body(
          std::string("{\"solomon\": \"") + JsonWriter::escape(text.str()) +
              "\", \"algorithm\": \"" + algorithm +
              "\", \"params\": {\"evaluations\": 500, "
              "\"restart_after\": 20}}",
          {});
      EXPECT_TRUE(job.ok) << inst.name() << " " << algorithm << ": "
                          << job.error;
      EXPECT_FALSE(job.stopped_early) << inst.name() << " " << algorithm;
    }
  }
}

TEST(EdgeCases, OneCustomerNeighborhoodOnlyRelocates) {
  const Instance inst = one_customer_instance();
  MoveEngine engine(inst);
  NeighborhoodGenerator generator(engine);
  const Solution base = Solution::from_routes(inst, {{1}});
  Rng rng(3);
  for (const Neighbor& nb : generator.generate(base, 30, rng)) {
    EXPECT_EQ(nb.move.type, MoveType::Relocate);
  }
}

TEST(EdgeCases, GeneratorZeroDensityGivesOnlyWideWindows) {
  GeneratorConfig cfg;
  cfg.num_customers = 30;
  cfg.tw_density = 0.0;
  cfg.seed = 4;
  const Instance inst = generate_instance(cfg);
  for (int c = 1; c <= inst.num_customers(); ++c) {
    EXPECT_EQ(inst.site(c).ready, 0.0) << c;
    // Due clamped only by the return-feasibility horizon.
    EXPECT_GT(inst.site(c).due, inst.horizon() * 0.5) << c;
  }
}

TEST(EdgeCases, GeneratorFullDensityGivesBoundedWindows) {
  GeneratorConfig cfg;
  cfg.num_customers = 30;
  cfg.horizon = HorizonClass::Short;
  cfg.tw_density = 1.0;
  cfg.seed = 5;
  const Instance inst = generate_instance(cfg);
  int tight = 0;
  for (int c = 1; c <= inst.num_customers(); ++c) {
    if (inst.site(c).due - inst.site(c).ready < inst.horizon() * 0.25) {
      ++tight;
    }
  }
  EXPECT_GT(tight, 25);  // nearly all windows are genuinely tight
}

TEST(EdgeCases, SaturatedFleetStillSearchable) {
  // Fleet of exactly min_vehicles: every route is near capacity, so many
  // relocate/exchange proposals fail the capacity screen; the search must
  // still progress.
  GeneratorConfig cfg;
  cfg.num_customers = 40;
  cfg.seed = 6;
  Instance probe = generate_instance(cfg);
  cfg.max_vehicles = probe.min_vehicles_by_capacity() + 1;
  const Instance inst = generate_instance(cfg);
  TsmoParams p;
  p.max_evaluations = 1500;
  p.neighborhood_size = 30;
  p.seed = 7;
  const RunResult r = SequentialTsmo(inst, p).run();
  ASSERT_FALSE(r.front.empty());
  for (const Solution& s : r.solutions) {
    EXPECT_DOUBLE_EQ(s.capacity_violation(), 0.0);
    EXPECT_LE(s.vehicles_used(), inst.max_vehicles());
  }
}

TEST(EdgeCases, TinyNeighborhoodSizeOne) {
  const Instance inst = generate_named("R1_1_1");
  TsmoParams p;
  p.max_evaluations = 300;
  p.neighborhood_size = 1;
  p.seed = 8;
  const RunResult r = SequentialTsmo(inst, p).run();
  EXPECT_GE(r.iterations, 250);  // ~one evaluation per iteration
  EXPECT_FALSE(r.front.empty());
}

TEST(EdgeCases, SingleRouteInstanceOperatorsDegrade) {
  // Everything in one route: inter-route operators cannot apply; intra
  // ones still work.
  const Instance inst = generate_named("R2_1_1");  // big capacity
  MoveEngine engine(inst);
  std::vector<int> all;
  for (int c = 1; c <= 20; ++c) all.push_back(c);
  std::vector<Site> sites;
  // Build a reduced instance with 20 customers and one vehicle.
  sites.push_back(inst.depot());
  for (int c = 1; c <= 20; ++c) sites.push_back(inst.site(c));
  const Instance small("small20", std::move(sites), 1, 1e9);
  MoveEngine small_engine(small);
  const Solution s = Solution::from_routes(small, {all});
  Rng rng(9);
  int intra = 0;
  for (int k = 0; k < 200; ++k) {
    const auto type = static_cast<MoveType>(rng.below(5));
    const auto move = small_engine.propose(type, s, rng);
    if (move) {
      EXPECT_TRUE(move->type == MoveType::TwoOpt ||
                  move->type == MoveType::OrOpt);
      ++intra;
    }
  }
  EXPECT_GT(intra, 0);
}

}  // namespace
}  // namespace tsmo
