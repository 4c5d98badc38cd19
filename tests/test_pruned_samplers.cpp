// Differential test of the pruned samplers (DESIGN.md §11): the mask pass
// over a candidate row against a walk that tests one partner at a time.
// Every draw must propose the same move (or none) and leave the Rng in the
// same state, for every operator, on every Homberger class at 100 and 1000
// customers, for candidate lists of 1 to 100 partners (one and two mask
// words), on bases with unrouted customers, empty routes, one-customer
// routes and capacity-tight fleets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "construct/i1_insertion.hpp"
#include "operators/move_engine.hpp"
#include "vrptw/candidate_list.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

// ---------------------------------------------------------------------
// Oracle: the per-partner walk and the five pruned samplers built on it,
// the engine's code before the mask pass, kept verbatim apart from the
// class they belong to.  Junctions are tested with the arithmetic edge_ok,
// so the oracle shares neither the bitmap nor the Visit records with the
// code under test.
namespace legacy {

int at_or_depot(const std::vector<int>& route, int pos) {
  return pos >= 0 && pos < static_cast<int>(route.size())
             ? route[static_cast<std::size_t>(pos)]
             : 0;
}

/// First neighbor satisfying `pred`, scanning the list cyclically from a
/// random start so ties across draws stay unbiased; -1 when none qualifies.
template <typename Pred>
int walk_neighbors(std::span<const std::int32_t> nb, Rng& rng, Pred&& pred) {
  if (nb.empty()) return -1;
  const std::size_t start =
      static_cast<std::size_t>(rng.below(nb.size()));
  for (std::size_t t = 0; t < nb.size(); ++t) {
    const int u = nb[(start + t) % nb.size()];
    if (pred(u)) return u;
  }
  return -1;
}

struct Sampler {
  const Instance* inst_;
  const CandidateList* cands_;

  bool edge_ok(int a, int b) const noexcept {
    const Site& sa = inst_->site(a);
    const Site& sb = inst_->site(b);
    return sa.ready + sa.service + inst_->distance(a, b) <= sb.due;
  }

  std::optional<Move> propose_relocate_pruned(const Solution& base,
                                              Rng& rng) const;
  std::optional<Move> propose_exchange_pruned(const Solution& base,
                                              Rng& rng) const;
  std::optional<Move> propose_two_opt_pruned(const Solution& base,
                                             Rng& rng) const;
  std::optional<Move> propose_two_opt_star_pruned(const Solution& base,
                                                  Rng& rng) const;
  std::optional<Move> propose_or_opt_pruned(const Solution& base,
                                            Rng& rng) const;

  std::optional<Move> propose(MoveType t, const Solution& base,
                              Rng& rng) const {
    switch (t) {
      case MoveType::Relocate:
        return propose_relocate_pruned(base, rng);
      case MoveType::Exchange:
        return propose_exchange_pruned(base, rng);
      case MoveType::TwoOpt:
        return propose_two_opt_pruned(base, rng);
      case MoveType::TwoOptStar:
        return propose_two_opt_star_pruned(base, rng);
      case MoveType::OrOpt:
        return propose_or_opt_pruned(base, rng);
    }
    return std::nullopt;
  }
};

std::optional<Move> Sampler::propose_relocate_pruned(const Solution& base,
                                                        Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 2 || base.num_routes() < 2) return std::nullopt;
  const int c = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int r1 = base.route_of(c);
  if (r1 < 0) return std::nullopt;
  const double cap = inst_->capacity();
  const double dc = inst_->site(c).demand;
  // Insert c directly before or after its candidate partner u; the side is
  // fixed by which junction direction is TW-reachable (an rng bit breaks
  // the tie when both are — the candidate list guarantees at least one is).
  int side = 0;
  const int u = walk_neighbors(cands_->neighbors(c), rng, [&](int v) {
    const int r2 = base.route_of(v);
    if (r2 < 0 || r2 == r1) return false;
    if (base.route_stats(r2).load + dc > cap) return false;
    const auto& route2 = base.route(r2);
    const int pv = base.position_of(v);
    const bool after =
        edge_ok(v, c) && edge_ok(c, at_or_depot(route2, pv + 1));
    const bool before =
        edge_ok(c, v) && edge_ok(at_or_depot(route2, pv - 1), c);
    if (!after && !before) return false;
    side = after && before ? static_cast<int>(rng.below(2)) : (after ? 1 : 0);
    return true;
  });
  if (u < 0) return std::nullopt;
  return Move{MoveType::Relocate, r1, base.route_of(u),
              base.position_of(c), base.position_of(u) + side};
}

std::optional<Move> Sampler::propose_exchange_pruned(const Solution& base,
                                                        Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 2) return std::nullopt;
  const int c1 = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int r1 = base.route_of(c1);
  if (r1 < 0) return std::nullopt;
  const auto& route1 = base.route(r1);
  const int i = base.position_of(c1);
  const int p1 = at_or_depot(route1, i - 1);
  const int s1 = at_or_depot(route1, i + 1);
  const double cap = inst_->capacity();
  const double d1 = inst_->site(c1).demand;
  const double load1 = base.route_stats(r1).load;
  const int c2 = walk_neighbors(cands_->neighbors(c1), rng, [&](int v) {
    const int r2 = base.route_of(v);
    if (r2 < 0 || r2 == r1) return false;
    const double d2 = inst_->site(v).demand;
    if (load1 - d1 + d2 > cap) return false;
    if (base.route_stats(r2).load - d2 + d1 > cap) return false;
    const auto& route2 = base.route(r2);
    const int pv = base.position_of(v);
    const int p2 = at_or_depot(route2, pv - 1);
    const int s2 = at_or_depot(route2, pv + 1);
    return edge_ok(p1, v) && edge_ok(v, s1) && edge_ok(p2, c1) &&
           edge_ok(c1, s2);
  });
  if (c2 < 0) return std::nullopt;
  return Move{MoveType::Exchange, r1, base.route_of(c2), i,
              base.position_of(c2)};
}

std::optional<Move> Sampler::propose_two_opt_pruned(const Solution& base,
                                                       Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 2) return std::nullopt;
  const int c1 = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int r = base.route_of(c1);
  if (r < 0) return std::nullopt;
  const auto& route = base.route(r);
  const int pc = base.position_of(c1);
  // Reversing [lo+1, hi] creates the junctions (route[lo], route[hi]) and
  // (route[lo+1], route[hi+1]) — the anchor/partner pair plus the rejoin;
  // adjacent positions would be a no-op reversal.
  const int c2 = walk_neighbors(cands_->neighbors(c1), rng, [&](int v) {
    if (base.route_of(v) != r) return false;
    const int pv = base.position_of(v);
    const int lo = std::min(pc, pv);
    const int hi = std::max(pc, pv);
    if (hi - lo < 2) return false;
    return edge_ok(route[static_cast<std::size_t>(lo)],
                   route[static_cast<std::size_t>(hi)]) &&
           edge_ok(route[static_cast<std::size_t>(lo + 1)],
                   at_or_depot(route, hi + 1));
  });
  if (c2 < 0) return std::nullopt;
  const int lo = std::min(pc, base.position_of(c2));
  const int hi = std::max(pc, base.position_of(c2));
  return Move{MoveType::TwoOpt, r, r, lo + 1, hi};
}

std::optional<Move> Sampler::propose_two_opt_star_pruned(
    const Solution& base, Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 2) return std::nullopt;
  const int c1 = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int r1 = base.route_of(c1);
  if (r1 < 0) return std::nullopt;
  const auto& route1 = base.route(r1);
  const int pc = base.position_of(c1);
  const double cap = inst_->capacity();
  const double load1 = base.route_stats(r1).load;
  // Cut after c1 and before u: the crossed tails create the junction
  // (c1, u) plus the mirror junction (pred(u), succ(c1)).  The prefix-load
  // checks mirror locally_feasible bitwise (same cum_load cache reads).
  const double prefix1 = base.route_cache(r1).cum_load(pc);
  const int head1 = at_or_depot(route1, pc + 1);
  const int u = walk_neighbors(cands_->neighbors(c1), rng, [&](int v) {
    const int r2 = base.route_of(v);
    if (r2 < 0 || r2 == r1) return false;
    const int pv = base.position_of(v);
    const double prefix2 =
        pv > 0 ? base.route_cache(r2).cum_load(pv - 1) : 0.0;
    const double load2 = base.route_stats(r2).load;
    if (prefix1 + (load2 - prefix2) > cap) return false;
    if (prefix2 + (load1 - prefix1) > cap) return false;
    return edge_ok(c1, v) &&
           edge_ok(at_or_depot(base.route(r2), pv - 1), head1);
  });
  if (u < 0) return std::nullopt;
  // i >= 1 and j < n2 rule out both forbidden cut pairs.
  return Move{MoveType::TwoOptStar, r1, base.route_of(u), pc + 1,
              base.position_of(u)};
}

std::optional<Move> Sampler::propose_or_opt_pruned(const Solution& base,
                                                      Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 3) return std::nullopt;
  const int c = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int r = base.route_of(c);
  if (r < 0) return std::nullopt;
  const auto& route = base.route(r);
  const int len = static_cast<int>(route.size());
  if (len < 3) return std::nullopt;
  const int i = base.position_of(c);
  if (i + 1 >= len) return std::nullopt;  // segment is [i, i+1]
  // Closing the gap the segment leaves is partner-independent: reject the
  // anchor before walking when that junction alone fails.
  if (!edge_ok(at_or_depot(route, i - 1), at_or_depot(route, i + 2))) {
    return std::nullopt;
  }
  const int seg_tail = route[static_cast<std::size_t>(i + 1)];
  // Re-insert the segment directly after u, creating junction (u, c).
  // j indexes the route with the segment removed.
  const auto to_removed_j = [&](int pv) {
    return (pv > i + 1 ? pv - 2 : pv) + 1;
  };
  const int u = walk_neighbors(cands_->neighbors(c), rng, [&](int v) {
    if (base.route_of(v) != r) return false;
    const int pv = base.position_of(v);
    if (pv == i || pv == i + 1) return false;
    const int j = to_removed_j(pv);
    if (j == i || j > len - 2) return false;
    // Successor of u in the segment-removed route (j >= i here, so the
    // original index shifts past the excised pair).
    const int succ = at_or_depot(route, j >= i ? j + 2 : j);
    return edge_ok(v, c) && edge_ok(seg_tail, succ);
  });
  if (u < 0) return std::nullopt;
  return Move{MoveType::OrOpt, r, r, i, to_removed_j(base.position_of(u))};
}

}  // namespace legacy

constexpr MoveType kOperators[] = {MoveType::Relocate, MoveType::Exchange,
                                   MoveType::TwoOpt, MoveType::TwoOptStar,
                                   MoveType::OrOpt};

std::string describe(const std::optional<Move>& m) {
  return m ? to_string(*m) : std::string("none");
}

/// Twin streams are in the same state when they draw the same next words.
bool same_state(Rng a, Rng b) {
  return a.next() == b.next() && a.next() == b.next();
}

/// Slot of `partner` in `anchor`'s candidate row, -1 when absent.
int slot_of(const CandidateList& cands, int anchor, int partner) {
  const auto nb = cands.neighbors(anchor);
  const auto it = std::find(nb.begin(), nb.end(), partner);
  return it == nb.end() ? -1 : static_cast<int>(it - nb.begin());
}

struct Tally {
  long moves[kNumMoveTypes] = {};
  long far_slot = 0;  // exchange and 2-opt* partners at slot 64 or later
};

/// `calls` draws of every operator on `base`, through the engine (one
/// attempt, capacity screen only) and through the oracle, from twin Rng
/// streams.  Pruned moves pass every screen, so the engine's attempt
/// returns exactly what its sampler proposed.
void expect_same_draws(const Instance& inst, const CandidateList& cands,
                       const Solution& base, std::uint64_t seed, int calls,
                       const std::string& what, Tally& tally) {
  MoveEngine engine(inst);
  engine.set_candidate_list(&cands);
  const legacy::Sampler oracle{&inst, &cands};
  for (const MoveType t : kOperators) {
    Rng want_rng(seed);
    Rng got_rng(seed);
    for (int call = 0; call < calls; ++call) {
      const std::optional<Move> want = oracle.propose(t, base, want_rng);
      const std::optional<Move> got = engine.propose(
          t, base, got_rng, 1, FeasibilityScreen::CapacityOnly);
      ASSERT_TRUE(got == want) << what << " " << to_string(t) << " call "
                               << call << ": got " << describe(got)
                               << ", want " << describe(want);
      ASSERT_TRUE(same_state(got_rng, want_rng))
          << what << " " << to_string(t) << " call " << call;
      if (!want) continue;
      ++tally.moves[static_cast<int>(t)];
      const Move& m = *want;
      const auto at = [&](int r, int p) {
        return base.route(r)[static_cast<std::size_t>(p)];
      };
      int slot = -1;
      if (t == MoveType::Exchange) {
        slot = slot_of(cands, at(m.r1, m.i), at(m.r2, m.j));
      } else if (t == MoveType::TwoOptStar) {
        slot = slot_of(cands, at(m.r1, m.i - 1), at(m.r2, m.j));
      }
      tally.far_slot += slot >= 64;
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

/// The bases every list is checked on.  The capacity-tight one lives on
/// `tight`, a copy of `inst` whose fleet is I1's routes and whose capacity
/// is their largest load.
std::vector<Base> bases_for(const Instance& inst, const Instance& tight,
                            const Solution& i1, Rng& rng) {
  std::vector<Base> bases;
  bases.push_back({"i1", i1});

  // Random applied moves, screened for capacity only, so routes go tardy.
  Solution moved = i1;
  const MoveEngine uniform(inst);
  for (int step = 0; step < 300; ++step) {
    const auto t = static_cast<MoveType>(rng.below(kNumMoveTypes));
    const auto m =
        uniform.propose(t, moved, rng, 12, FeasibilityScreen::CapacityOnly);
    if (m) uniform.apply(moved, *m);
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

TEST(PrunedDifferential, MaskPassMatchesLegacyWalk) {
  Rng rng(2026);
  Tally short_lists;
  Tally long_lists;
  for (const char* cls : {"R1", "R2", "C1", "C2", "RC1", "RC2"}) {
    for (const int hundreds : {1, 10}) {
      const Instance inst = generate_named(
          std::string(cls) + "_" + std::to_string(hundreds) + "_1");
      const Solution i1 = construct_i1_random(inst, rng);
      double max_load = 0.0;
      for (int r = 0; r < i1.num_routes(); ++r) {
        max_load = std::max(max_load, i1.route_stats(r).load);
      }
      const Instance tight(inst.name() + "-tight", inst.sites(),
                           i1.vehicles_used(), max_load);
      const std::vector<Base> bases = bases_for(inst, tight, i1, rng);
      const int calls = hundreds == 1 ? 100 : 60;
      for (const int k : {1, 4, 16, 64, 65, 100}) {
        // The lists depend on the sites only, so the tight copy shares them.
        const CandidateList cands(inst, k);
        for (const Base& base : bases) {
          const Instance& on = base.name == "tight" ? tight : inst;
          expect_same_draws(on, cands, base.solution, rng.next(), calls,
                            inst.name() + " k=" + std::to_string(k) + " " +
                                base.name,
                            k > 64 ? long_lists : short_lists);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  // Every operator found partners, and lists longer than one mask word
  // had partners picked past the first word.
  for (const MoveType t : kOperators) {
    EXPECT_GT(short_lists.moves[static_cast<int>(t)], 0) << to_string(t);
    EXPECT_GT(long_lists.moves[static_cast<int>(t)], 0) << to_string(t);
  }
  EXPECT_GT(long_lists.far_slot, 0);
}

}  // namespace
}  // namespace tsmo
