// Differential fuzz of the incremental (delta) move evaluation against the
// reference build_modified + evaluate_route path.  The delta path must be
// BITWISE equal — candidate objectives feed archive duplicate detection,
// which compares doubles exactly — so every comparison here is EXPECT_EQ
// on raw doubles, never a tolerance.

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "construct/i1_insertion.hpp"
#include "operators/move_engine.hpp"
#include "vrptw/generator.hpp"
#include "vrptw/schedule.hpp"
#include "vrptw/solution.hpp"

namespace tsmo {
namespace {

// A solution from a random permutation split into random chunks: unlike an
// I1 construction it is usually tardy (and sometimes over capacity), which
// exercises the late-tail and rejoin-with-lateness paths of the delta
// evaluator that feasible solutions never reach.
Solution random_solution(const Instance& inst, Rng& rng) {
  std::vector<int> perm(static_cast<std::size_t>(inst.num_customers()));
  for (int c = 1; c <= inst.num_customers(); ++c) {
    perm[static_cast<std::size_t>(c - 1)] = c;
  }
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  const int chunks = std::max(
      2, static_cast<int>(rng.uniform_int(inst.max_vehicles() / 2,
                                          inst.max_vehicles())));
  std::vector<std::vector<int>> routes(static_cast<std::size_t>(chunks));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    routes[rng.below(static_cast<std::uint64_t>(chunks))].push_back(perm[i]);
  }
  return Solution::from_routes(inst, std::move(routes));
}

std::optional<Move> random_move(const MoveEngine& engine,
                                const Solution& s, Rng& rng) {
  const auto type = static_cast<MoveType>(rng.below(5));
  const int R = s.num_routes();
  const int r1 = static_cast<int>(rng.below(static_cast<std::uint64_t>(R)));
  const int r2 = static_cast<int>(rng.below(static_cast<std::uint64_t>(R)));
  const auto len = [&](int r) {
    return static_cast<std::uint64_t>(s.route(r).size()) + 2;
  };
  Move m{type, r1, r2, static_cast<int>(rng.below(len(r1))) - 1,
         static_cast<int>(rng.below(len(r2))) - 1};
  if (type == MoveType::TwoOpt || type == MoveType::OrOpt) m.r2 = m.r1;
  if (!engine.applicable(s, m)) return std::nullopt;
  return m;
}

// Reference tardiness screen recomputed from first principles on
// materialized routes.  The capacity pre-check reuses the engine's screen;
// its own delta path is verified separately below.
bool reference_exact_feasible(const Instance& inst, MoveEngine& engine,
                              const Solution& base, const Move& m) {
  if (!engine.capacity_feasible(base, m)) return false;
  Solution next = base;
  engine.apply(next, m);
  double old_t = base.route_stats(m.r1).tardiness;
  double new_t = evaluate_route(inst, next.route(m.r1)).tardiness;
  if (m.r1 != m.r2) {
    old_t += base.route_stats(m.r2).tardiness;
    new_t += evaluate_route(inst, next.route(m.r2)).tardiness;
  }
  return new_t <= old_t + 1e-9;
}

// Reference 2-opt* prefix loads via the demand loops the cache replaced.
void reference_two_opt_star_loads(const Instance& inst, const Solution& s,
                                  const Move& m, double* prefix1,
                                  double* prefix2) {
  *prefix1 = 0.0;
  *prefix2 = 0.0;
  for (int k = 0; k < m.i; ++k) {
    *prefix1 += inst.site(s.route(m.r1)[static_cast<std::size_t>(k)]).demand;
  }
  for (int k = 0; k < m.j; ++k) {
    *prefix2 += inst.site(s.route(m.r2)[static_cast<std::size_t>(k)]).demand;
  }
}

struct FuzzConfig {
  const char* instance;
  int states;          // random starting solutions
  int moves_per_state; // applicable moves checked per state
};

// gtest would otherwise print a FuzzConfig as its raw bytes, which include
// the ASLR-randomised address of `instance`, and ctest names each case
// after that printout — so the test names would change from build to build.
// Printed as `<instance> <states>x<moves_per_state>`, kept terse so the
// whole ctest name stays under 100 characters.
void PrintTo(const FuzzConfig& c, std::ostream* os) {
  *os << c.instance << ' ' << c.states << 'x' << c.moves_per_state;
}

class DeltaEvalFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(DeltaEvalFuzz, DeltaBitwiseEqualsFullAndScreensAgree) {
  const FuzzConfig cfg = GetParam();
  const Instance inst = generate_named(cfg.instance);
  MoveEngine engine(inst);
  Rng rng(0xDE17AE7A1ULL);

  int checked = 0;
  int tardy_states = 0;
  std::array<int, kNumMoveTypes> per_type{};
  for (int state = 0; state < cfg.states; ++state) {
    Solution current = random_solution(inst, rng);
    if (current.objectives().tardiness > 0.0) ++tardy_states;
    int done = 0;
    int attempts = 0;
    while (done < cfg.moves_per_state && attempts++ < cfg.moves_per_state * 30) {
      const auto move = random_move(engine, current, rng);
      if (!move) continue;
      const Move m = *move;

      // 1. Delta-evaluated objectives bitwise equal the reference path.
      const Objectives fast = engine.evaluate(current, m);
      const Objectives full = engine.evaluate_full(current, m);
      ASSERT_EQ(fast.distance, full.distance) << to_string(m);
      ASSERT_EQ(fast.tardiness, full.tardiness) << to_string(m);
      ASSERT_EQ(fast.vehicles, full.vehicles) << to_string(m);

      // 2. Screens agree with first-principles recomputation.
      ASSERT_EQ(engine.exact_feasible(current, m),
                reference_exact_feasible(inst, engine, current, m))
          << to_string(m);
      if (m.type == MoveType::TwoOptStar) {
        double p1 = 0.0, p2 = 0.0;
        reference_two_opt_star_loads(inst, current, m, &p1, &p2);
        const double cap = inst.capacity();
        const double load1 = current.route_stats(m.r1).load;
        const double load2 = current.route_stats(m.r2).load;
        const bool ref = p1 + (load2 - p2) <= cap && p2 + (load1 - p1) <= cap;
        ASSERT_EQ(engine.capacity_feasible(current, m), ref) << to_string(m);
      }

      // 3. Applying the move (in-place splice) reproduces the predicted
      //    objectives bitwise and a structurally valid solution.
      Solution next = current;
      engine.apply(next, m);
      ASSERT_EQ(fast, next.objectives()) << to_string(m);
      ASSERT_NO_THROW(next.validate());

      ++per_type[static_cast<std::size_t>(m.type)];
      ++checked;
      ++done;
      // March through the space (feasible or not) to diversify states.
      if (rng.chance(0.3)) current = std::move(next);
    }
  }
  EXPECT_GE(checked, cfg.states * cfg.moves_per_state / 2)
      << "fuzz exercised too few moves";
  EXPECT_GT(tardy_states, 0) << "fuzz never saw a tardy solution";
  for (int t = 0; t < kNumMoveTypes; ++t) {
    EXPECT_GT(per_type[static_cast<std::size_t>(t)], 0)
        << "move type " << t << " never exercised";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, DeltaEvalFuzz,
    ::testing::Values(FuzzConfig{"R1_1_1", 8, 150},
                      FuzzConfig{"C1_1_1", 8, 150},
                      FuzzConfig{"RC1_1_2", 8, 150},
                      FuzzConfig{"R2_1_1", 8, 150},
                      FuzzConfig{"C2_1_2", 8, 150},
                      FuzzConfig{"C1_4_1", 2, 200},
                      FuzzConfig{"R1_4_1", 2, 200}),
    [](const ::testing::TestParamInfo<FuzzConfig>& info) {
      return std::string(info.param.instance);
    });

// Feasible (I1-constructed) solutions exercise the fast rejoin path where
// the tail carries no lateness; run the same differential check there.
TEST(DeltaEvalFeasible, DeltaBitwiseEqualsFullOnConstructedSolutions) {
  for (const char* name : {"R1_1_1", "C1_1_1", "C2_1_2"}) {
    const Instance inst = generate_named(name);
    MoveEngine engine(inst);
    Rng rng(77);
    Solution current = construct_i1_random(inst, rng);
    int checked = 0;
    for (int step = 0; step < 30000 && checked < 1000; ++step) {
      const auto move = random_move(engine, current, rng);
      if (!move) continue;
      ASSERT_EQ(engine.evaluate(current, *move),
                engine.evaluate_full(current, *move))
          << name << " " << to_string(*move);
      ++checked;
    }
    EXPECT_GT(checked, 500) << name;
  }
}

// evaluate_batch must reproduce the per-move evaluate() results bitwise —
// the batch path is a pure restructuring (one hoisted IncrementalRouteEval,
// one flat pass) of the same arithmetic, and candidate objectives feed
// exact-equality duplicate detection downstream.
TEST(DeltaEvalBatch, BatchBitwiseEqualsSingleMoveEvaluate) {
  for (const char* name : {"R1_1_1", "C1_1_1", "RC1_1_2", "C2_1_2"}) {
    const Instance inst = generate_named(name);
    MoveEngine engine(inst);
    Rng rng(0xBA7C4ULL);
    int batches = 0;
    for (int state = 0; state < 6; ++state) {
      Solution current = random_solution(inst, rng);
      std::vector<Move> moves;
      int attempts = 0;
      while (moves.size() < 64 && attempts++ < 3000) {
        const auto move = random_move(engine, current, rng);
        if (move) moves.push_back(*move);
      }
      ASSERT_GT(moves.size(), 16u) << name;
      std::vector<Objectives> batch;
      engine.evaluate_batch(current, moves, batch);
      ASSERT_EQ(batch.size(), moves.size());
      for (std::size_t i = 0; i < moves.size(); ++i) {
        const Objectives single = engine.evaluate(current, moves[i]);
        ASSERT_EQ(batch[i].distance, single.distance)
            << name << " " << to_string(moves[i]);
        ASSERT_EQ(batch[i].tardiness, single.tardiness)
            << name << " " << to_string(moves[i]);
        ASSERT_EQ(batch[i].vehicles, single.vehicles)
            << name << " " << to_string(moves[i]);
      }
      ++batches;
      // Walk to a new state so batches see varied route shapes.
      engine.apply(current, moves[rng.below(moves.size())]);
    }
    EXPECT_GT(batches, 0) << name;
  }
}

// An empty batch and repeated reuse of the same output vector must be safe.
TEST(DeltaEvalBatch, EmptyBatchAndOutputReuse) {
  const Instance inst = generate_named("R1_1_1");
  MoveEngine engine(inst);
  Rng rng(11);
  const Solution s = random_solution(inst, rng);
  std::vector<Objectives> out(7);  // stale content must be discarded
  engine.evaluate_batch(s, {}, out);
  EXPECT_TRUE(out.empty());
  std::vector<Move> moves;
  while (moves.size() < 8) {
    const auto m = random_move(engine, s, rng);
    if (m) moves.push_back(*m);
  }
  engine.evaluate_batch(s, moves, out);
  ASSERT_EQ(out.size(), moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    EXPECT_EQ(out[i], engine.evaluate(s, moves[i]));
  }
}

// The cache arrays must replay evaluate_route / RouteSchedule bitwise.
TEST(RouteCacheConsistency, MatchesScheduleAndStats) {
  const Instance inst = generate_named("RC1_1_1");
  Rng rng(5);
  const Solution s = random_solution(inst, rng);
  for (int r = 0; r < s.num_routes(); ++r) {
    const auto& route = s.route(r);
    const RouteCache& cache = s.route_cache(r);
    const RouteStats& stats = s.route_stats(r);
    ASSERT_EQ(cache.size(), static_cast<int>(route.size()));
    if (route.empty()) {
      EXPECT_TRUE(cache.route_empty());
      continue;
    }
    const RouteSchedule sched = RouteSchedule::compute(inst, route);
    const int n = cache.size();
    double dist = 0.0, load = 0.0, tard = 0.0;
    int last_late = -1;
    for (int p = 0; p < n; ++p) {
      const int c = route[static_cast<std::size_t>(p)];
      const int prev = p > 0 ? route[static_cast<std::size_t>(p - 1)] : 0;
      EXPECT_EQ(cache.arc(p), inst.distance(prev, c));
      dist += cache.arc(p);
      load += inst.site(c).demand;
      tard += sched.lateness[static_cast<std::size_t>(p)];
      if (sched.lateness[static_cast<std::size_t>(p)] > 0.0) last_late = p;
      EXPECT_EQ(cache.cum_dist(p), dist);
      EXPECT_EQ(cache.cum_load(p), load);
      EXPECT_EQ(cache.depart(p), sched.departure[static_cast<std::size_t>(p)]);
      EXPECT_EQ(cache.cum_tard(p), tard);
    }
    EXPECT_EQ(cache.arc(n),
              inst.distance(route[static_cast<std::size_t>(n - 1)], 0));
    EXPECT_EQ(dist + cache.arc(n), stats.distance);
    if (sched.depot_lateness > 0.0) last_late = n;
    EXPECT_EQ(cache.last_late(), last_late);
    EXPECT_EQ(stats.tardiness, sched.total_tardiness);
  }
}

// evaluate_route_cached must be a drop-in for evaluate_route.
TEST(RouteCacheConsistency, CachedEvaluationEqualsPlain) {
  const Instance inst = generate_named("R2_1_1");
  Rng rng(9);
  const Solution s = random_solution(inst, rng);
  RouteCache cache;
  for (int r = 0; r < s.num_routes(); ++r) {
    const RouteStats plain = evaluate_route(inst, s.route(r));
    const RouteStats cached = evaluate_route_cached(inst, s.route(r), cache);
    EXPECT_EQ(plain, cached);
  }
}

TEST(ArrivalTimeAt, SolutionOverloadMatchesSpanWalk) {
  const Instance inst = generate_named("C1_1_1");
  Rng rng(11);
  const Solution s = random_solution(inst, rng);
  ASSERT_TRUE(s.is_evaluated());
  for (int r = 0; r < s.num_routes(); ++r) {
    for (std::size_t p = 0; p < s.route(r).size(); ++p) {
      EXPECT_EQ(arrival_time_at(s, r, p),
                arrival_time_at(inst, s.route(r), p));
    }
  }
}

TEST(ScheduleFromSolution, CachedOverloadMatchesSpanCompute) {
  const Instance inst = generate_named("RC2_1_2");
  Rng rng(13);
  const Solution s = random_solution(inst, rng);
  for (int r = 0; r < s.num_routes(); ++r) {
    const RouteSchedule a = RouteSchedule::compute(s, r);
    const RouteSchedule b = RouteSchedule::compute(inst, s.route(r));
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.departure, b.departure);
    EXPECT_EQ(a.lateness, b.lateness);
    EXPECT_EQ(a.forward_slack, b.forward_slack);
    EXPECT_EQ(a.depot_return, b.depot_return);
    EXPECT_EQ(a.total_tardiness, b.total_tardiness);
  }
}

}  // namespace
}  // namespace tsmo
