// Differential test of the uniform draws (candidate_k 0): each operator's
// attempt loop, which judges a drawn move from the drawn customers' Visit
// records, against the draw-then-screen code it replaced.  Every call must
// propose the same move (or none), leave the Rng in the same state and,
// with telemetry on, advance move.screen_checks, move.screen_reject and
// move.propose_giveup by the same amounts, for every operator, under the
// Local, CapacityOnly and Exact screens, with 1 and 12 attempts, on every
// Homberger class at 100, 400 and 600 customers, on bases with unrouted
// customers, empty and one-customer routes and capacity-tight fleets, and
// on instances so small that every early exit runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "construct/i1_insertion.hpp"
#include "operators/move_engine.hpp"
#include "test_support.hpp"
#include "util/telemetry.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

/// What the three proposal counters should read.
struct Counts {
  std::uint64_t checks = 0;
  std::uint64_t rejects = 0;
  std::uint64_t giveups = 0;
};

// ---------------------------------------------------------------------
// Oracle: the five uniform samplers, the attempt loop and the Local and
// capacity screens, the engine's code before the uniform draws were fused
// with their screen, kept verbatim apart from the class they belong to
// and the counters, which go to `counts`.  Junctions are tested with the
// arithmetic edge_ok, so the oracle shares neither the bitmap nor the
// Visit-record reads with the code under test.  The Exact screen is the
// engine's own (it is not under test here).
namespace legacy {

int at_or_depot(const std::vector<int>& route, int pos) {
  return pos >= 0 && pos < static_cast<int>(route.size())
             ? route[static_cast<std::size_t>(pos)]
             : 0;
}

struct Sampler {
  const Instance* inst_;
  const MoveEngine* engine_;
  mutable Counts counts;
  /// Attempts that ended at an early exit, per operator.
  mutable long early[kNumMoveTypes] = {};

  bool edge_ok(int a, int b) const noexcept {
    const Site& sa = inst_->site(a);
    const Site& sb = inst_->site(b);
    return sa.ready + sa.service + inst_->distance(a, b) <= sb.due;
  }

  bool locally_feasible(const Solution& base, const Move& m) const;
  bool capacity_feasible(const Solution& base, const Move& m) const;
  bool screened_feasible(const Solution& base, const Move& m,
                         FeasibilityScreen screen) const;
  std::optional<Move> propose(MoveType t, const Solution& base, Rng& rng,
                              int max_attempts,
                              FeasibilityScreen screen) const;
  std::optional<Move> propose_relocate(const Solution& base, Rng& rng) const;
  std::optional<Move> propose_exchange(const Solution& base, Rng& rng) const;
  std::optional<Move> propose_two_opt(const Solution& base, Rng& rng) const;
  std::optional<Move> propose_two_opt_star(const Solution& base,
                                           Rng& rng) const;
  std::optional<Move> propose_or_opt(const Solution& base, Rng& rng) const;
};

bool Sampler::locally_feasible(const Solution& base, const Move& m) const {
  const auto& r1 = base.route(m.r1);
  const auto& r2 = base.route(m.r2);
  const double cap = inst_->capacity();

  switch (m.type) {
    case MoveType::Relocate: {
      const int c = r1[static_cast<std::size_t>(m.i)];
      if (base.route_stats(m.r2).load + inst_->site(c).demand > cap) {
        return false;
      }
      const int pred = at_or_depot(r2, m.j - 1);
      const int succ = at_or_depot(r2, m.j);
      return edge_ok(pred, c) && edge_ok(c, succ);
    }
    case MoveType::Exchange: {
      const int c1 = r1[static_cast<std::size_t>(m.i)];
      const int c2 = r2[static_cast<std::size_t>(m.j)];
      const double d1 = inst_->site(c1).demand;
      const double d2 = inst_->site(c2).demand;
      if (base.route_stats(m.r1).load - d1 + d2 > cap) return false;
      if (base.route_stats(m.r2).load - d2 + d1 > cap) return false;
      const int p1 = at_or_depot(r1, m.i - 1);
      const int s1 = at_or_depot(r1, m.i + 1);
      const int p2 = at_or_depot(r2, m.j - 1);
      const int s2 = at_or_depot(r2, m.j + 1);
      return edge_ok(p1, c2) && edge_ok(c2, s1) && edge_ok(p2, c1) &&
             edge_ok(c1, s2);
    }
    case MoveType::TwoOpt: {
      // New junctions: (i-1) -> j and i -> (j+1); the reversed interior is
      // deliberately unchecked ("local" criterion).
      const int pred = at_or_depot(r1, m.i - 1);
      const int succ = at_or_depot(r1, m.j + 1);
      return edge_ok(pred, r1[static_cast<std::size_t>(m.j)]) &&
             edge_ok(r1[static_cast<std::size_t>(m.i)], succ);
    }
    case MoveType::TwoOptStar: {
      // O(1) prefix loads from the cumulative-load cache (bitwise equal to
      // the demand sums they replace).
      const double prefix1 =
          m.i > 0 ? base.route_cache(m.r1).cum_load(m.i - 1) : 0.0;
      const double prefix2 =
          m.j > 0 ? base.route_cache(m.r2).cum_load(m.j - 1) : 0.0;
      const double load1 = base.route_stats(m.r1).load;
      const double load2 = base.route_stats(m.r2).load;
      if (prefix1 + (load2 - prefix2) > cap) return false;
      if (prefix2 + (load1 - prefix1) > cap) return false;
      const int tail1 = at_or_depot(r1, m.i - 1);
      const int head2 = at_or_depot(r2, m.j);
      const int tail2 = at_or_depot(r2, m.j - 1);
      const int head1 = at_or_depot(r1, m.i);
      return edge_ok(tail1, head2) && edge_ok(tail2, head1);
    }
    case MoveType::OrOpt: {
      const int s1 = r1[static_cast<std::size_t>(m.i)];
      const int s2 = r1[static_cast<std::size_t>(m.i + 1)];
      // Route with the segment removed, for locating insertion neighbours.
      auto removed_at = [&](int pos) {
        // Position `pos` in the route after removing [i, i+1].
        const int shifted = pos >= m.i ? pos + 2 : pos;
        return at_or_depot(r1, shifted);
      };
      const int pred = m.j > 0 ? removed_at(m.j - 1) : 0;
      const int succ = removed_at(m.j);
      const int gap_pred = at_or_depot(r1, m.i - 1);
      const int gap_succ = at_or_depot(r1, m.i + 2);
      return edge_ok(pred, s1) && edge_ok(s2, succ) &&
             edge_ok(gap_pred, gap_succ);
    }
  }
  return false;
}

bool Sampler::capacity_feasible(const Solution& base, const Move& m) const {
  const auto& r1 = base.route(m.r1);
  const auto& r2 = base.route(m.r2);
  const double cap = inst_->capacity();
  switch (m.type) {
    case MoveType::Relocate: {
      const int c = r1[static_cast<std::size_t>(m.i)];
      return base.route_stats(m.r2).load + inst_->site(c).demand <= cap;
    }
    case MoveType::Exchange: {
      const double d1 =
          inst_->site(r1[static_cast<std::size_t>(m.i)]).demand;
      const double d2 =
          inst_->site(r2[static_cast<std::size_t>(m.j)]).demand;
      return base.route_stats(m.r1).load - d1 + d2 <= cap &&
             base.route_stats(m.r2).load - d2 + d1 <= cap;
    }
    case MoveType::TwoOpt:
    case MoveType::OrOpt:
      return true;  // intra-route: loads unchanged
    case MoveType::TwoOptStar: {
      const double prefix1 =
          m.i > 0 ? base.route_cache(m.r1).cum_load(m.i - 1) : 0.0;
      const double prefix2 =
          m.j > 0 ? base.route_cache(m.r2).cum_load(m.j - 1) : 0.0;
      const double load1 = base.route_stats(m.r1).load;
      const double load2 = base.route_stats(m.r2).load;
      return prefix1 + (load2 - prefix2) <= cap &&
             prefix2 + (load1 - prefix1) <= cap;
    }
  }
  return false;
}

bool Sampler::screened_feasible(const Solution& base, const Move& m,
                                FeasibilityScreen screen) const {
  bool ok = false;
  switch (screen) {
    case FeasibilityScreen::CapacityOnly:
      ok = capacity_feasible(base, m);
      break;
    case FeasibilityScreen::Local:
      ok = locally_feasible(base, m);
      break;
    case FeasibilityScreen::Exact:
      ok = engine_->exact_feasible(base, m);
      break;
  }
  ++counts.checks;
  if (!ok) ++counts.rejects;
  return ok;
}

std::optional<Move> Sampler::propose(MoveType t, const Solution& base,
                                     Rng& rng, int max_attempts,
                                     FeasibilityScreen screen) const {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::optional<Move> m;
    switch (t) {
      case MoveType::Relocate:
        m = propose_relocate(base, rng);
        break;
      case MoveType::Exchange:
        m = propose_exchange(base, rng);
        break;
      case MoveType::TwoOpt:
        m = propose_two_opt(base, rng);
        break;
      case MoveType::TwoOptStar:
        m = propose_two_opt_star(base, rng);
        break;
      case MoveType::OrOpt:
        m = propose_or_opt(base, rng);
        break;
    }
    if (!m) ++early[static_cast<int>(t)];
    if (m && screened_feasible(base, *m, screen)) {
      return m;
    }
  }
  ++counts.giveups;
  return std::nullopt;
}

std::optional<Move> Sampler::propose_relocate(const Solution& base,
                                              Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 1 || base.num_routes() < 2) return std::nullopt;
  const int c = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int r1 = base.route_of(c);
  if (r1 < 0) return std::nullopt;
  int r2 = static_cast<int>(
      rng.below(static_cast<std::uint64_t>(base.num_routes() - 1)));
  if (r2 >= r1) ++r2;  // uniform over routes != r1
  const int j = static_cast<int>(rng.below(
      static_cast<std::uint64_t>(base.route(r2).size()) + 1));
  return Move{MoveType::Relocate, r1, r2, base.position_of(c), j};
}

std::optional<Move> Sampler::propose_exchange(const Solution& base,
                                              Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 2) return std::nullopt;
  const int c1 =
      1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int c2 =
      1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int r1 = base.route_of(c1);
  const int r2 = base.route_of(c2);
  if (r1 < 0 || r2 < 0 || r1 == r2) return std::nullopt;
  return Move{MoveType::Exchange, r1, r2, base.position_of(c1),
              base.position_of(c2)};
}

std::optional<Move> Sampler::propose_two_opt(const Solution& base,
                                             Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 2) return std::nullopt;
  // Anchor on a random customer so longer routes are picked proportionally.
  const int c = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int r = base.route_of(c);
  if (r < 0) return std::nullopt;
  const int len = static_cast<int>(base.route(r).size());
  if (len < 2) return std::nullopt;
  int i = static_cast<int>(rng.below(static_cast<std::uint64_t>(len)));
  int j = static_cast<int>(rng.below(static_cast<std::uint64_t>(len)));
  if (i == j) return std::nullopt;
  if (i > j) std::swap(i, j);
  return Move{MoveType::TwoOpt, r, r, i, j};
}

std::optional<Move> Sampler::propose_two_opt_star(const Solution& base,
                                                  Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 2) return std::nullopt;
  const int c1 =
      1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int c2 =
      1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int r1 = base.route_of(c1);
  const int r2 = base.route_of(c2);
  if (r1 < 0 || r2 < 0 || r1 == r2) return std::nullopt;
  const int n1 = static_cast<int>(base.route(r1).size());
  const int n2 = static_cast<int>(base.route(r2).size());
  const int i =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(n1) + 1));
  const int j =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(n2) + 1));
  if ((i == n1 && j == n2) || (i == 0 && j == 0)) return std::nullopt;
  return Move{MoveType::TwoOptStar, r1, r2, i, j};
}

std::optional<Move> Sampler::propose_or_opt(const Solution& base,
                                            Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 3) return std::nullopt;
  const int c = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int r = base.route_of(c);
  if (r < 0) return std::nullopt;
  const int len = static_cast<int>(base.route(r).size());
  if (len < 3) return std::nullopt;
  const int i =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(len - 1)));
  const int j =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(len - 1)));
  if (j == i) return std::nullopt;
  return Move{MoveType::OrOpt, r, r, i, j};
}

}  // namespace legacy

constexpr MoveType kOperators[] = {MoveType::Relocate, MoveType::Exchange,
                                   MoveType::TwoOpt, MoveType::TwoOptStar,
                                   MoveType::OrOpt};
constexpr FeasibilityScreen kScreens[] = {FeasibilityScreen::Local,
                                          FeasibilityScreen::CapacityOnly,
                                          FeasibilityScreen::Exact};

std::string describe(const std::optional<Move>& m) {
  return m ? to_string(*m) : std::string("none");
}

/// Twin streams are in the same state when they draw the same next words.
bool same_state(Rng a, Rng b) {
  return a.next() == b.next() && a.next() == b.next();
}

/// The three proposal counters as the telemetry registry reads them now
/// (all zero when the instrumentation is compiled out).
Counts counted() {
  Counts c;
#if TSMO_TELEMETRY_ENABLED
  const telemetry::Snapshot snap =
      telemetry::Registry::instance().snapshot(false);
  const auto value = [&](const char* name) -> std::uint64_t {
    const telemetry::CounterSnap* s = snap.find_counter(name);
    return s ? s->value : 0;
  };
  c.checks = value("move.screen_checks");
  c.rejects = value("move.screen_reject");
  c.giveups = value("move.propose_giveup");
#endif
  return c;
}

/// Draws through the engine and through the oracle from twin Rng streams,
/// `calls` times per operator, screen and attempt count.
void expect_same_draws(const Instance& inst, const Solution& base,
                       std::uint64_t seed, int calls, const std::string& what,
                       legacy::Sampler& oracle, long& moves) {
  const MoveEngine engine(inst);
  oracle.inst_ = &inst;
  oracle.engine_ = &engine;
  for (const MoveType t : kOperators) {
    for (const FeasibilityScreen screen : kScreens) {
      for (const int attempts : {1, 12}) {
        const std::string at = what + " " + to_string(t) + " " +
                               to_string(screen) + " attempts " +
                               std::to_string(attempts);
        Rng want_rng(seed);
        Rng got_rng(seed);
        oracle.counts = {};
        const Counts before = counted();
        for (int call = 0; call < calls; ++call) {
          const std::optional<Move> want =
              oracle.propose(t, base, want_rng, attempts, screen);
          const std::optional<Move> got =
              engine.propose(t, base, got_rng, attempts, screen);
          ASSERT_TRUE(got == want) << at << " call " << call << ": got "
                                   << describe(got) << ", want "
                                   << describe(want);
          ASSERT_TRUE(same_state(got_rng, want_rng))
              << at << " call " << call;
          moves += want.has_value();
        }
#if TSMO_TELEMETRY_ENABLED
        const Counts after = counted();
        ASSERT_EQ(after.checks - before.checks, oracle.counts.checks) << at;
        ASSERT_EQ(after.rejects - before.rejects, oracle.counts.rejects) << at;
        ASSERT_EQ(after.giveups - before.giveups, oracle.counts.giveups)
            << at;
#else
        (void)before;
#endif
      }
    }
  }
}

/// The solution's non-empty routes, in order.
std::vector<std::vector<int>> used_routes(const Solution& s) {
  std::vector<std::vector<int>> routes;
  for (int r = 0; r < s.num_routes(); ++r) {
    if (!s.route(r).empty()) routes.push_back(s.route(r));
  }
  return routes;
}

struct Base {
  std::string name;
  Solution solution;
};

/// The bases every instance is checked on.  The capacity-tight one lives
/// on `tight`, a copy of `inst` whose fleet is I1's routes and whose
/// capacity is their largest load.
std::vector<Base> bases_for(const Instance& inst, const Instance& tight,
                            const Solution& i1, Rng& rng) {
  std::vector<Base> bases;
  bases.push_back({"i1", i1});

  // Random applied moves, screened for capacity only, so routes go tardy.
  Solution moved = i1;
  const MoveEngine engine(inst);
  for (int step = 0; step < 300; ++step) {
    const auto t = static_cast<MoveType>(rng.below(kNumMoveTypes));
    const auto m =
        engine.propose(t, moved, rng, 12, FeasibilityScreen::CapacityOnly);
    if (m) engine.apply(moved, *m);
  }
  bases.push_back({"moved", moved});

  // Every fifth customer unrouted; some routes may empty out.
  std::vector<std::vector<int>> partial;
  for (auto route : used_routes(i1)) {
    std::erase_if(route, [](int c) { return c % 5 == 0; });
    partial.push_back(std::move(route));
  }
  bases.push_back({"partial", Solution::from_routes(inst, partial)});

  // One-customer routes split off the front of routes, and empty routes
  // between the others, within the fleet.
  std::vector<std::vector<int>> shaped;
  std::vector<std::vector<int>> routes = used_routes(moved);
  int spare = inst.max_vehicles() - static_cast<int>(routes.size());
  for (std::size_t r = 0; r < routes.size(); ++r) {
    if (spare > 0 && r % 2 == 0 && routes[r].size() >= 2) {
      shaped.push_back({routes[r].front()});
      routes[r].erase(routes[r].begin());
      --spare;
    }
    shaped.push_back(routes[r]);
    if (spare > 0 && r % 3 == 1) {
      shaped.emplace_back();
      --spare;
    }
  }
  bases.push_back({"shaped", Solution::from_routes(inst, shaped)});

  bases.push_back({"tight", Solution::from_routes(tight, used_routes(i1))});
  return bases;
}

/// Turns telemetry on over a zeroed registry; on scope exit zeroes it again
/// and restores the switch.
struct TelemetryOn {
  TelemetryOn() : was(telemetry::set_enabled(true)) {
    telemetry::Registry::instance().reset();
  }
  ~TelemetryOn() {
    telemetry::Registry::instance().reset();
    telemetry::set_enabled(was);
  }
  TelemetryOn(const TelemetryOn&) = delete;
  TelemetryOn& operator=(const TelemetryOn&) = delete;
  const bool was;
};

TEST(UniformDifferential, FusedDrawMatchesProposeThenScreen) {
  const TelemetryOn telemetry_on;
  Rng rng(2026);
  legacy::Sampler oracle{};
  long moves = 0;
  for (const char* cls : {"R1", "R2", "C1", "C2", "RC1", "RC2"}) {
    for (const int hundreds : {1, 4, 6}) {
      const Instance inst = generate_named(
          std::string(cls) + "_" + std::to_string(hundreds) + "_1");
      const Solution i1 = construct_i1_random(inst, rng);
      double max_load = 0.0;
      for (int r = 0; r < i1.num_routes(); ++r) {
        max_load = std::max(max_load, i1.route_stats(r).load);
      }
      const Instance tight(inst.name() + "-tight", inst.sites(),
                           i1.vehicles_used(), max_load);
      for (const Base& base : bases_for(inst, tight, i1, rng)) {
        const Instance& on = base.name == "tight" ? tight : inst;
        expect_same_draws(on, base.solution, rng.next(), 40,
                          inst.name() + " " + base.name, oracle, moves);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

  // One vehicle and 1, 2 or 3 customers, all on the route or all unrouted:
  // relocate has one route, exchange and 2-opt* find both customers on it,
  // 2-opt and or-opt meet routes too short for them and n < 2 and n < 3.
  for (const int n : {1, 2, 3}) {
    const Instance inst = testing::line_instance(n, 1);
    std::vector<int> route;
    for (int c = 1; c <= n; ++c) route.push_back(c);
    const Solution routed = Solution::from_routes(inst, {route});
    const Solution unrouted(inst);
    expect_same_draws(inst, routed, rng.next(), 40,
                      inst.name() + " routed", oracle, moves);
    if (::testing::Test::HasFatalFailure()) return;
    expect_same_draws(inst, unrouted, rng.next(), 40,
                      inst.name() + " unrouted", oracle, moves);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Every operator took an early exit somewhere, and moves came out.
  for (const MoveType t : kOperators) {
    EXPECT_GT(oracle.early[static_cast<int>(t)], 0) << to_string(t);
  }
  EXPECT_GT(moves, 0);
}

}  // namespace
}  // namespace tsmo
