#include "operators/move_engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <utility>

#include "util/profiler.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

namespace {

int at_or_depot(const std::vector<int>& route, int pos) {
  return pos >= 0 && pos < static_cast<int>(route.size())
             ? route[static_cast<std::size_t>(pos)]
             : 0;
}

/// Load of `route` through position p - 1, 0 for p == 0 (the route is not
/// empty): one read of the cumulative-load cache, bitwise equal to the
/// demand sum it replaces, and a select.
double prefix_load(const Solution& base, int route, int p) {
  const double through =
      base.route_cache(route).cum_load(std::max(p - 1, 0));
  return p > 0 ? through : 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Structural validity
// ---------------------------------------------------------------------------

bool MoveEngine::applicable(const Solution& base, const Move& m) const {
  const int R = base.num_routes();
  if (m.r1 < 0 || m.r1 >= R || m.r2 < 0 || m.r2 >= R) return false;
  const auto& r1 = base.route(m.r1);
  const auto& r2 = base.route(m.r2);
  const int n1 = static_cast<int>(r1.size());
  const int n2 = static_cast<int>(r2.size());
  switch (m.type) {
    case MoveType::Relocate:
      return m.r1 != m.r2 && m.i >= 0 && m.i < n1 && m.j >= 0 && m.j <= n2;
    case MoveType::Exchange:
      return m.r1 != m.r2 && m.i >= 0 && m.i < n1 && m.j >= 0 && m.j < n2;
    case MoveType::TwoOpt:
      return m.r1 == m.r2 && m.i >= 0 && m.i < m.j && m.j < n1;
    case MoveType::TwoOptStar:
      // Cut points may equal the route length (empty tail); forbid the two
      // no-op cuts (both at end) and the pure label swap (both at start).
      return m.r1 != m.r2 && n1 > 0 && n2 > 0 && m.i >= 0 && m.i <= n1 &&
             m.j >= 0 && m.j <= n2 && !(m.i == n1 && m.j == n2) &&
             !(m.i == 0 && m.j == 0);
    case MoveType::OrOpt:
      // Segment [i, i+1]; j indexes the route after segment removal.
      return m.r1 == m.r2 && n1 >= 3 && m.i >= 0 && m.i + 1 < n1 &&
             m.j >= 0 && m.j <= n1 - 2 && m.j != m.i;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Local feasibility (paper §II.B)
// ---------------------------------------------------------------------------

inline bool MoveEngine::relocate_fits(int c, double load2) const noexcept {
  const double dc = inst_->soa().demand[static_cast<std::size_t>(c)];
  return !(load2 + dc > inst_->capacity());
}

inline bool MoveEngine::relocate_local(int c, double load2, int pred,
                                       int succ) const noexcept {
  return relocate_fits(c, load2) & edge_ok(pred, c) & edge_ok(c, succ);
}

inline bool MoveEngine::exchange_fits(int c1, double load1, int c2,
                                      double load2) const noexcept {
  const double* demand = inst_->soa().demand.data();
  const double cap = inst_->capacity();
  const double d1 = demand[c1];
  const double d2 = demand[c2];
  return !(load1 - d1 + d2 > cap) & !(load2 - d2 + d1 > cap);
}

inline bool MoveEngine::exchange_local(int c1, int pred1, int succ1,
                                       double load1, int c2, int pred2,
                                       int succ2,
                                       double load2) const noexcept {
  return exchange_fits(c1, load1, c2, load2) & edge_ok(pred1, c2) &
         edge_ok(c2, succ1) & edge_ok(pred2, c1) & edge_ok(c1, succ2);
}

inline bool MoveEngine::two_opt_local(int pred, int first, int last,
                                      int succ) const noexcept {
  // The reversed interior is deliberately unchecked ("local" criterion).
  return edge_ok(pred, last) & edge_ok(first, succ);
}

inline bool MoveEngine::cross_loads_fit(double prefix1, double load1,
                                        double prefix2,
                                        double load2) const noexcept {
  const double cap = inst_->capacity();
  return !(prefix1 + (load2 - prefix2) > cap) &
         !(prefix2 + (load1 - prefix1) > cap);
}

inline bool MoveEngine::cross_junctions_ok(int tail1, int head1, int tail2,
                                           int head2) const noexcept {
  return edge_ok(tail1, head2) & edge_ok(tail2, head1);
}

inline bool MoveEngine::two_opt_star_local(double prefix1, double load1,
                                           double prefix2, double load2,
                                           int tail1, int head1, int tail2,
                                           int head2) const noexcept {
  return cross_loads_fit(prefix1, load1, prefix2, load2) &
         cross_junctions_ok(tail1, head1, tail2, head2);
}

inline bool MoveEngine::or_opt_insert_ok(int pred, int s1, int s2,
                                         int succ) const noexcept {
  return edge_ok(pred, s1) & edge_ok(s2, succ);
}

inline bool MoveEngine::or_opt_gap_ok(int gap_pred,
                                      int gap_succ) const noexcept {
  return edge_ok(gap_pred, gap_succ);
}

inline bool MoveEngine::or_opt_local(int pred, int s1, int s2, int succ,
                                     int gap_pred,
                                     int gap_succ) const noexcept {
  return or_opt_insert_ok(pred, s1, s2, succ) &
         or_opt_gap_ok(gap_pred, gap_succ);
}

bool MoveEngine::locally_feasible(const Solution& base, const Move& m) const {
  assert(applicable(base, m));
  const auto& r1 = base.route(m.r1);
  const auto& r2 = base.route(m.r2);
  const auto at = [](const std::vector<int>& route, int pos) {
    return route[static_cast<std::size_t>(pos)];
  };

  switch (m.type) {
    case MoveType::Relocate:
      return relocate_local(at(r1, m.i), base.route_stats(m.r2).load,
                            at_or_depot(r2, m.j - 1), at_or_depot(r2, m.j));
    case MoveType::Exchange:
      return exchange_local(at(r1, m.i), at_or_depot(r1, m.i - 1),
                            at_or_depot(r1, m.i + 1),
                            base.route_stats(m.r1).load, at(r2, m.j),
                            at_or_depot(r2, m.j - 1),
                            at_or_depot(r2, m.j + 1),
                            base.route_stats(m.r2).load);
    case MoveType::TwoOpt:
      // New junctions: (i-1) -> j and i -> (j+1).
      return two_opt_local(at_or_depot(r1, m.i - 1), at(r1, m.i),
                           at(r1, m.j), at_or_depot(r1, m.j + 1));
    case MoveType::TwoOptStar:
      return two_opt_star_local(
          prefix_load(base, m.r1, m.i), base.route_stats(m.r1).load,
          prefix_load(base, m.r2, m.j), base.route_stats(m.r2).load,
          at_or_depot(r1, m.i - 1), at_or_depot(r1, m.i),
          at_or_depot(r2, m.j - 1), at_or_depot(r2, m.j));
    case MoveType::OrOpt: {
      // Position `pos` of the route with the segment [i, i+1] removed.
      const auto removed_at = [&](int pos) {
        return at_or_depot(r1, pos >= m.i ? pos + 2 : pos);
      };
      return or_opt_local(m.j > 0 ? removed_at(m.j - 1) : 0, at(r1, m.i),
                          at(r1, m.i + 1), removed_at(m.j),
                          at_or_depot(r1, m.i - 1), at_or_depot(r1, m.i + 2));
    }
  }
  return false;
}

bool MoveEngine::capacity_feasible(const Solution& base,
                                   const Move& m) const {
  assert(applicable(base, m));
  const auto& r1 = base.route(m.r1);
  const auto& r2 = base.route(m.r2);
  const double load1 = base.route_stats(m.r1).load;
  const double load2 = base.route_stats(m.r2).load;
  switch (m.type) {
    case MoveType::Relocate:
      return relocate_fits(r1[static_cast<std::size_t>(m.i)], load2);
    case MoveType::Exchange:
      return exchange_fits(r1[static_cast<std::size_t>(m.i)], load1,
                           r2[static_cast<std::size_t>(m.j)], load2);
    case MoveType::TwoOpt:
    case MoveType::OrOpt:
      return true;  // intra-route: loads unchanged
    case MoveType::TwoOptStar:
      return cross_loads_fit(prefix_load(base, m.r1, m.i), load1,
                             prefix_load(base, m.r2, m.j), load2);
  }
  return false;
}

bool MoveEngine::exact_feasible(const Solution& base, const Move& m) const {
  if (!capacity_feasible(base, m)) return false;
  IncrementalRouteEval eval(*inst_);
  const RouteDeltas d = delta_routes(base, m, eval);
  double old_tardiness = base.route_stats(m.r1).tardiness;
  double new_tardiness = d.tard1;
  if (m.r1 != m.r2) {
    old_tardiness += base.route_stats(m.r2).tardiness;
    new_tardiness += d.tard2;
  }
  return new_tardiness <= old_tardiness + 1e-9;
}

namespace {

/// Counts one screen verdict and passes it through.
inline bool count_screen(bool ok) noexcept {
  TSMO_COUNT("move.screen_checks");
  if (!ok) TSMO_COUNT("move.screen_reject");
  return ok;
}

}  // namespace

bool MoveEngine::screened_feasible(const Solution& base, const Move& m,
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
      ok = exact_feasible(base, m);
      break;
  }
  return count_screen(ok);
}

// ---------------------------------------------------------------------------
// Route reconstruction, evaluation, application
// ---------------------------------------------------------------------------

void MoveEngine::build_modified(const Solution& base, const Move& m,
                                std::vector<int>& out1,
                                std::vector<int>& out2) const {
  const auto& r1 = base.route(m.r1);
  const auto& r2 = base.route(m.r2);
  out1.clear();
  out2.clear();
  switch (m.type) {
    case MoveType::Relocate: {
      const int c = r1[static_cast<std::size_t>(m.i)];
      out1 = r1;
      out1.erase(out1.begin() + m.i);
      out2 = r2;
      out2.insert(out2.begin() + m.j, c);
      break;
    }
    case MoveType::Exchange: {
      out1 = r1;
      out2 = r2;
      std::swap(out1[static_cast<std::size_t>(m.i)],
                out2[static_cast<std::size_t>(m.j)]);
      break;
    }
    case MoveType::TwoOpt: {
      out1 = r1;
      std::reverse(out1.begin() + m.i, out1.begin() + m.j + 1);
      break;
    }
    case MoveType::TwoOptStar: {
      out1.assign(r1.begin(), r1.begin() + m.i);
      out1.insert(out1.end(), r2.begin() + m.j, r2.end());
      out2.assign(r2.begin(), r2.begin() + m.j);
      out2.insert(out2.end(), r1.begin() + m.i, r1.end());
      break;
    }
    case MoveType::OrOpt: {
      const int s1 = r1[static_cast<std::size_t>(m.i)];
      const int s2 = r1[static_cast<std::size_t>(m.i + 1)];
      out1 = r1;
      out1.erase(out1.begin() + m.i, out1.begin() + m.i + 2);
      out1.insert(out1.begin() + m.j, {s1, s2});
      break;
    }
  }
}

// Delta evaluation core: each modified route is three pieces — an
// unchanged prefix adopted from the RouteCache in O(1), the spliced-in
// visits pushed one by one, and an unchanged tail closed by
// finish_with_tail, which stops as soon as the new departure time rejoins
// the cached schedule.  All arithmetic replays evaluate_route's exact
// operation order, so the results are bitwise what a from-scratch
// evaluation of the modified route would produce.
MoveEngine::RouteDeltas MoveEngine::delta_routes(
    const Solution& base, const Move& m, IncrementalRouteEval& eval) const {
  assert(base.is_evaluated());
  const auto& r1 = base.route(m.r1);
  const auto& r2 = base.route(m.r2);
  const RouteCache::View c1 = base.route_cache(m.r1).view();
  const RouteCache::View c2 = base.route_cache(m.r2).view();

  RouteDeltas out;
  const auto take1 = [&] {
    out.dist1 = eval.distance();
    out.tard1 = eval.tardiness();
    out.empty1 = eval.route_empty();
  };
  const auto take2 = [&] {
    out.dist2 = eval.distance();
    out.tard2 = eval.tardiness();
    out.empty2 = eval.route_empty();
  };

  switch (m.type) {
    case MoveType::Relocate: {
      eval.seed_prefix(r1, c1, m.i);
      eval.finish_with_tail(r1, c1, m.i + 1);
      take1();
      eval.seed_prefix(r2, c2, m.j);
      eval.push(r1[static_cast<std::size_t>(m.i)]);
      eval.finish_with_tail(r2, c2, m.j);
      take2();
      break;
    }
    case MoveType::Exchange: {
      eval.seed_prefix(r1, c1, m.i);
      eval.push(r2[static_cast<std::size_t>(m.j)]);
      eval.finish_with_tail(r1, c1, m.i + 1);
      take1();
      eval.seed_prefix(r2, c2, m.j);
      eval.push(r1[static_cast<std::size_t>(m.i)]);
      eval.finish_with_tail(r2, c2, m.j + 1);
      take2();
      break;
    }
    case MoveType::TwoOpt: {
      eval.seed_prefix(r1, c1, m.i);
      eval.push_reversed(r1, m.i, m.j + 1);
      eval.finish_with_tail(r1, c1, m.j + 1);
      take1();
      break;
    }
    case MoveType::TwoOptStar: {
      eval.seed_prefix(r1, c1, m.i);
      eval.finish_with_tail(r2, c2, m.j);
      take1();
      eval.seed_prefix(r2, c2, m.j);
      eval.finish_with_tail(r1, c1, m.i);
      take2();
      break;
    }
    case MoveType::OrOpt: {
      // Segment [i, i+1] re-inserted at position j of the reduced route.
      if (m.j < m.i) {
        eval.seed_prefix(r1, c1, m.j);
        eval.push(r1[static_cast<std::size_t>(m.i)]);
        eval.push(r1[static_cast<std::size_t>(m.i + 1)]);
        eval.push_range(r1, m.j, m.i);
        eval.finish_with_tail(r1, c1, m.i + 2);
      } else {
        eval.seed_prefix(r1, c1, m.i);
        eval.push_range(r1, m.i + 2, m.j + 2);
        eval.push(r1[static_cast<std::size_t>(m.i)]);
        eval.push(r1[static_cast<std::size_t>(m.i + 1)]);
        eval.finish_with_tail(r1, c1, m.j + 2);
      }
      take1();
      break;
    }
  }
  return out;
}

Objectives MoveEngine::evaluate(const Solution& base, const Move& m) const {
  assert(applicable(base, m));
  // Delta pricing off the base's segment caches — a "cache hit" relative to
  // the full rebuild in evaluate_full().
  TSMO_COUNT("move.priced");
  TSMO_PROFILE_FRAME("move.evaluate");
  IncrementalRouteEval eval(*inst_);
  return combine_deltas(base, m, delta_routes(base, m, eval));
}

void MoveEngine::evaluate_batch(const Solution& base,
                                std::span<const Move> moves,
                                std::vector<Objectives>& out) const {
  out.resize(moves.size());
  TSMO_COUNT_N("move.priced", moves.size());
  TSMO_PROFILE_FRAME("move.evaluate_batch");
  // One accumulator for the whole batch: the SoA field pointers are
  // resolved once, and consecutive moves revisit the same handful of
  // route caches while they are hot.
  IncrementalRouteEval eval(*inst_);
  for (std::size_t b = 0; b < moves.size(); ++b) {
    assert(applicable(base, moves[b]));
    out[b] = combine_deltas(base, moves[b],
                            delta_routes(base, moves[b], eval));
  }
}

Objectives MoveEngine::combine_deltas(const Solution& base, const Move& m,
                                      const RouteDeltas& d) const {
  const bool inter = m.r1 != m.r2;

  // Summing route stats in index order makes the result bitwise identical
  // to Solution::evaluate() after apply() — so candidate objectives,
  // archive duplicate detection, and materialized solutions always agree
  // exactly.  The chain up to the first modified route is replayed from
  // the base's prefix sums (same additions, so bitwise the same state),
  // and empty routes are skipped throughout: their +0.0 terms never
  // change a non-negative accumulator.
  const int A = static_cast<int>(base.active_routes().size());
  // The chain has at most two modified terms.  active_rank gives each its
  // position in one lookup: for a non-empty route its active index, and
  // for an empty r2 (relocate into a fresh vehicle, absent from the
  // chain) the position its new term is *inserted* at.
  struct Term {
    int pos;
    double dd, dt;
    bool insert;
  };
  const bool r2_was_empty = inter && base.route(m.r2).empty();
  Term ev[2] = {{base.active_rank(m.r1), d.dist1, d.tard1, false},
                {inter ? base.active_rank(m.r2) : A, d.dist2, d.tard2,
                 r2_was_empty}};
  int ne = inter ? 2 : 1;
  // An inserted term with the same rank as r1's precedes it exactly when
  // r2 < r1 (ranks of distinct non-empty routes never tie).
  if (ne == 2 &&
      (ev[1].pos < ev[0].pos || (ev[1].pos == ev[0].pos && m.r2 < m.r1))) {
    std::swap(ev[0], ev[1]);
  }

  double dist = base.prefix_distance(ev[0].pos);
  double tard = base.prefix_tardiness(ev[0].pos);
  int k = ev[0].pos;
  for (int e = 0; e < ne; ++e) {
    for (; k < ev[e].pos; ++k) {
      dist += base.active_distance(k);
      tard += base.active_tardiness(k);
    }
    dist += ev[e].dd;
    tard += ev[e].dt;
    if (!ev[e].insert) ++k;  // the substituted term replaces active[k]
  }
  for (; k < A; ++k) {
    dist += base.active_distance(k);
    tard += base.active_tardiness(k);
  }

  Objectives obj;
  obj.distance = dist;
  obj.tardiness = tard;
  // Vehicle counting is integer arithmetic (order-independent), so the
  // base count can be patched instead of re-scanning route emptiness.
  // r1 is never empty in an applicable move.
  obj.vehicles = base.objectives().vehicles - 1 + (d.empty1 ? 0 : 1);
  if (inter) {
    obj.vehicles += (d.empty2 ? 0 : 1) - (r2_was_empty ? 0 : 1);
  }
  return obj;
}

Objectives MoveEngine::evaluate_full(const Solution& base,
                                     const Move& m) const {
  assert(applicable(base, m));
  TSMO_COUNT("move.priced_full");
  build_modified(base, m, scratch1_, scratch2_);

  const RouteStats new1 = evaluate_route(*inst_, scratch1_);
  const bool inter = m.r1 != m.r2;
  const RouteStats new2 =
      inter ? evaluate_route(*inst_, scratch2_) : RouteStats{};

  Objectives obj;
  for (int r = 0; r < base.num_routes(); ++r) {
    const RouteStats* stats;
    bool empty;
    if (r == m.r1) {
      stats = &new1;
      empty = scratch1_.empty();
    } else if (inter && r == m.r2) {
      stats = &new2;
      empty = scratch2_.empty();
    } else {
      stats = &base.route_stats(r);
      empty = base.route(r).empty();
    }
    obj.distance += stats->distance;
    obj.tardiness += stats->tardiness;
    if (!empty) ++obj.vehicles;
  }
  return obj;
}

void MoveEngine::apply(Solution& s, const Move& m) const {
  assert(applicable(s, m));
  TSMO_COUNT("move.apply");
  // In-place splices: no scratch round-trip except the single tail copy a
  // 2-opt* cross needs.
  switch (m.type) {
    case MoveType::Relocate: {
      auto& r1 = s.mutable_route(m.r1);
      auto& r2 = s.mutable_route(m.r2);
      const int c = r1[static_cast<std::size_t>(m.i)];
      r1.erase(r1.begin() + m.i);
      r2.insert(r2.begin() + m.j, c);
      break;
    }
    case MoveType::Exchange: {
      std::swap(s.mutable_route(m.r1)[static_cast<std::size_t>(m.i)],
                s.mutable_route(m.r2)[static_cast<std::size_t>(m.j)]);
      break;
    }
    case MoveType::TwoOpt: {
      auto& r = s.mutable_route(m.r1);
      std::reverse(r.begin() + m.i, r.begin() + m.j + 1);
      break;
    }
    case MoveType::TwoOptStar: {
      auto& r1 = s.mutable_route(m.r1);
      auto& r2 = s.mutable_route(m.r2);
      scratch1_.assign(r1.begin() + m.i, r1.end());
      r1.resize(static_cast<std::size_t>(m.i));
      r1.insert(r1.end(), r2.begin() + m.j, r2.end());
      r2.resize(static_cast<std::size_t>(m.j));
      r2.insert(r2.end(), scratch1_.begin(), scratch1_.end());
      break;
    }
    case MoveType::OrOpt: {
      auto& r = s.mutable_route(m.r1);
      if (m.j < m.i) {
        std::rotate(r.begin() + m.j, r.begin() + m.i, r.begin() + m.i + 2);
      } else {
        std::rotate(r.begin() + m.i, r.begin() + m.i + 2,
                    r.begin() + m.j + 2);
      }
      break;
    }
  }
  s.evaluate();
}

// ---------------------------------------------------------------------------
// Tabu attributes
// ---------------------------------------------------------------------------

MoveAttrs MoveEngine::created_attrs(const Solution& base,
                                    const Move& m) const {
  MoveAttrs attrs;
  const auto& r1 = base.route(m.r1);
  const auto& r2 = base.route(m.r2);
  switch (m.type) {
    case MoveType::Relocate:
      attrs.push(assign_attr(r1[static_cast<std::size_t>(m.i)], m.r2));
      break;
    case MoveType::Exchange:
      attrs.push(assign_attr(r1[static_cast<std::size_t>(m.i)], m.r2));
      attrs.push(assign_attr(r2[static_cast<std::size_t>(m.j)], m.r1));
      break;
    case MoveType::TwoOpt:
      attrs.push(edge_attr(at_or_depot(r1, m.i - 1),
                           r1[static_cast<std::size_t>(m.j)]));
      attrs.push(edge_attr(r1[static_cast<std::size_t>(m.i)],
                           at_or_depot(r1, m.j + 1)));
      break;
    case MoveType::TwoOptStar:
      attrs.push(edge_attr(at_or_depot(r1, m.i - 1), at_or_depot(r2, m.j)));
      attrs.push(edge_attr(at_or_depot(r2, m.j - 1), at_or_depot(r1, m.i)));
      break;
    case MoveType::OrOpt: {
      const int s1 = r1[static_cast<std::size_t>(m.i)];
      const int s2 = r1[static_cast<std::size_t>(m.i + 1)];
      auto removed_at = [&](int pos) {
        const int shifted = pos >= m.i ? pos + 2 : pos;
        return at_or_depot(r1, shifted);
      };
      attrs.push(edge_attr(m.j > 0 ? removed_at(m.j - 1) : 0, s1));
      attrs.push(edge_attr(s2, removed_at(m.j)));
      break;
    }
  }
  return attrs;
}

MoveAttrs MoveEngine::destroyed_attrs(const Solution& base,
                                      const Move& m) const {
  MoveAttrs attrs;
  const auto& r1 = base.route(m.r1);
  const auto& r2 = base.route(m.r2);
  switch (m.type) {
    case MoveType::Relocate:
      attrs.push(assign_attr(r1[static_cast<std::size_t>(m.i)], m.r1));
      break;
    case MoveType::Exchange:
      attrs.push(assign_attr(r1[static_cast<std::size_t>(m.i)], m.r1));
      attrs.push(assign_attr(r2[static_cast<std::size_t>(m.j)], m.r2));
      break;
    case MoveType::TwoOpt:
      attrs.push(edge_attr(at_or_depot(r1, m.i - 1),
                           r1[static_cast<std::size_t>(m.i)]));
      attrs.push(edge_attr(r1[static_cast<std::size_t>(m.j)],
                           at_or_depot(r1, m.j + 1)));
      break;
    case MoveType::TwoOptStar:
      attrs.push(
          edge_attr(at_or_depot(r1, m.i - 1), at_or_depot(r1, m.i)));
      attrs.push(
          edge_attr(at_or_depot(r2, m.j - 1), at_or_depot(r2, m.j)));
      break;
    case MoveType::OrOpt: {
      const int s1 = r1[static_cast<std::size_t>(m.i)];
      const int s2 = r1[static_cast<std::size_t>(m.i + 1)];
      attrs.push(edge_attr(at_or_depot(r1, m.i - 1), s1));
      attrs.push(edge_attr(s2, at_or_depot(r1, m.i + 2)));
      break;
    }
  }
  return attrs;
}

// ---------------------------------------------------------------------------
// Random proposals
// ---------------------------------------------------------------------------

std::optional<Move> MoveEngine::propose(MoveType t, const Solution& base,
                                        Rng& rng, int max_attempts,
                                        FeasibilityScreen screen) const {
  if (cands_ == nullptr) {
    switch (t) {
      case MoveType::Relocate:
        return uniform_relocate(base, rng, max_attempts, screen);
      case MoveType::Exchange:
        return uniform_exchange(base, rng, max_attempts, screen);
      case MoveType::TwoOpt:
        return uniform_two_opt(base, rng, max_attempts, screen);
      case MoveType::TwoOptStar:
        return uniform_two_opt_star(base, rng, max_attempts, screen);
      case MoveType::OrOpt:
        return uniform_or_opt(base, rng, max_attempts, screen);
    }
  }
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::optional<Move> m;
    switch (t) {
      case MoveType::Relocate:
        m = propose_relocate_pruned(base, rng);
        break;
      case MoveType::Exchange:
        m = propose_exchange_pruned(base, rng);
        break;
      case MoveType::TwoOpt:
        m = propose_two_opt_pruned(base, rng);
        break;
      case MoveType::TwoOptStar:
        m = propose_two_opt_star_pruned(base, rng);
        break;
      case MoveType::OrOpt:
        m = propose_or_opt_pruned(base, rng);
        break;
    }
    if (m && screened_feasible(base, *m, screen)) {
      TSMO_COUNT("neighborhood.prune_hits");
      return m;
    }
    TSMO_COUNT("neighborhood.prune_rejects");
  }
  TSMO_COUNT("move.propose_giveup");
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Uniform proposals (the paper's sampler, candidate_k 0)
//
// Each operator draws its customers and positions uniformly, in a fixed
// order, and returns early, before any screen, when the draw cannot make a
// move (an unrouted customer, one route for both ends, a route too short,
// a no-op).  A drawn move's Local verdict reads the drawn customers'
// Visit records for the sites around each new junction, so no route is
// re-read to screen it, and the operator's type is fixed for every
// attempt.  Other screens judge the drawn move through screened_feasible.
// ---------------------------------------------------------------------------

namespace {

/// Up to `max_attempts` calls of `draw`, which returns false at an early
/// exit (no move, no screen check) and otherwise sets the move and its
/// Local verdict.
template <typename Draw>
std::optional<Move> draw_until_screened(const MoveEngine& engine,
                                        const Solution& base,
                                        int max_attempts,
                                        FeasibilityScreen screen,
                                        Draw&& draw) {
  Move m;
  bool local = false;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (!draw(m, local)) continue;
    if (screen == FeasibilityScreen::Local
            ? count_screen(local)
            : engine.screened_feasible(base, m, screen)) {
      return m;
    }
  }
  TSMO_COUNT("move.propose_giveup");
  return std::nullopt;
}

int draw_customer(Rng& rng, int n) {
  return 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
}

int draw_below(Rng& rng, int bound) {
  return static_cast<int>(rng.below(static_cast<std::uint64_t>(bound)));
}

/// The sites on either side of slot `j` (0 <= j <= size) of `route`: the
/// one before the slot and the one at it, the depot (0) past either end.
/// Both come from one customer, the one at the slot or, at the end slot,
/// the last one, and its Visit record, so `j` picks with selects, not
/// branches.  An empty route reads the depot's record, which (the depot
/// is never routed) has both neighbours 0.
struct Slot {
  int before;
  int at;
};
Slot slot_sites(const Solution& base, const std::vector<int>& route, int j) {
  static constexpr int kDepot = 0;
  const int len = static_cast<int>(route.size());
  const bool end = j == len;
  const int x = *(len > 0 ? route.data() + (j - end) : &kDepot);
  const Solution::Visit& v = base.visit(x);
  return {end ? x : v.pred, end ? v.succ : x};
}

}  // namespace

std::optional<Move> MoveEngine::uniform_relocate(
    const Solution& base, Rng& rng, int max_attempts,
    FeasibilityScreen screen) const {
  const int n = inst_->num_customers();
  const int routes = base.num_routes();
  return draw_until_screened(
      *this, base, max_attempts, screen, [&](Move& m, bool& local) {
        if (n < 1 || routes < 2) return false;
        const int c = draw_customer(rng, n);
        const Solution::Visit& from = base.visit(c);
        if (from.route < 0) return false;
        int r2 = draw_below(rng, routes - 1);
        r2 += r2 >= from.route;  // uniform over routes != r1
        const std::vector<int>& to = base.route(r2);
        const int j = draw_below(rng, static_cast<int>(to.size()) + 1);
        m = Move{MoveType::Relocate, from.route, r2, from.position, j};
        const Slot slot = slot_sites(base, to, j);
        local = relocate_local(c, base.route_stats(r2).load, slot.before,
                               slot.at);
        return true;
      });
}

std::optional<Move> MoveEngine::uniform_exchange(
    const Solution& base, Rng& rng, int max_attempts,
    FeasibilityScreen screen) const {
  const int n = inst_->num_customers();
  return draw_until_screened(
      *this, base, max_attempts, screen, [&](Move& m, bool& local) {
        if (n < 2) return false;
        const int c1 = draw_customer(rng, n);
        const int c2 = draw_customer(rng, n);
        const Solution::Visit& a = base.visit(c1);
        const Solution::Visit& b = base.visit(c2);
        if (a.route < 0 || b.route < 0 || a.route == b.route) return false;
        m = Move{MoveType::Exchange, a.route, b.route, a.position,
                 b.position};
        local = exchange_local(c1, a.pred, a.succ,
                               base.route_stats(a.route).load, c2, b.pred,
                               b.succ, base.route_stats(b.route).load);
        return true;
      });
}

std::optional<Move> MoveEngine::uniform_two_opt(
    const Solution& base, Rng& rng, int max_attempts,
    FeasibilityScreen screen) const {
  const int n = inst_->num_customers();
  return draw_until_screened(
      *this, base, max_attempts, screen, [&](Move& m, bool& local) {
        if (n < 2) return false;
        // Anchor on a random customer so longer routes are picked
        // proportionally.
        const int r = base.route_of(draw_customer(rng, n));
        if (r < 0) return false;
        const std::vector<int>& route = base.route(r);
        const int len = static_cast<int>(route.size());
        if (len < 2) return false;
        const int i = draw_below(rng, len);
        const int j = draw_below(rng, len);
        if (i == j) return false;
        const int lo = std::min(i, j);
        const int hi = std::max(i, j);
        m = Move{MoveType::TwoOpt, r, r, lo, hi};
        const int first = route[static_cast<std::size_t>(lo)];
        const int last = route[static_cast<std::size_t>(hi)];
        local = two_opt_local(base.visit(first).pred, first, last,
                              base.visit(last).succ);
        return true;
      });
}

std::optional<Move> MoveEngine::uniform_two_opt_star(
    const Solution& base, Rng& rng, int max_attempts,
    FeasibilityScreen screen) const {
  const int n = inst_->num_customers();
  return draw_until_screened(
      *this, base, max_attempts, screen, [&](Move& m, bool& local) {
        if (n < 2) return false;
        const int r1 = base.route_of(draw_customer(rng, n));
        const int r2 = base.route_of(draw_customer(rng, n));
        if (r1 < 0 || r2 < 0 || r1 == r2) return false;
        const std::vector<int>& route1 = base.route(r1);
        const std::vector<int>& route2 = base.route(r2);
        const int n1 = static_cast<int>(route1.size());
        const int n2 = static_cast<int>(route2.size());
        const int i = draw_below(rng, n1 + 1);
        const int j = draw_below(rng, n2 + 1);
        if ((i == n1 && j == n2) || (i == 0 && j == 0)) return false;
        m = Move{MoveType::TwoOptStar, r1, r2, i, j};
        // Cut i of r1 runs between cut1.before (its tail's last site) and
        // cut1.at (its head's first); likewise cut j of r2.
        const Slot cut1 = slot_sites(base, route1, i);
        const Slot cut2 = slot_sites(base, route2, j);
        local = two_opt_star_local(
            prefix_load(base, r1, i), base.route_stats(r1).load,
            prefix_load(base, r2, j), base.route_stats(r2).load,
            cut1.before, cut1.at, cut2.before, cut2.at);
        return true;
      });
}

std::optional<Move> MoveEngine::uniform_or_opt(
    const Solution& base, Rng& rng, int max_attempts,
    FeasibilityScreen screen) const {
  const int n = inst_->num_customers();
  return draw_until_screened(
      *this, base, max_attempts, screen, [&](Move& m, bool& local) {
        if (n < 3) return false;
        const int r = base.route_of(draw_customer(rng, n));
        if (r < 0) return false;
        const std::vector<int>& route = base.route(r);
        const int len = static_cast<int>(route.size());
        if (len < 3) return false;
        const int i = draw_below(rng, len - 1);
        const int j = draw_below(rng, len - 1);
        if (j == i) return false;
        m = Move{MoveType::OrOpt, r, r, i, j};
        const int s1 = route[static_cast<std::size_t>(i)];
        const int s2 = route[static_cast<std::size_t>(i + 1)];
        // Slot j of the route without the segment lies before route[j]
        // when j < i, and after route[j + 1] (the segment shifts it) when
        // j > i.
        const bool after = j > i;
        const int x = route[static_cast<std::size_t>(j + after)];
        const Solution::Visit& v = base.visit(x);
        local = or_opt_local(after ? x : v.pred, s1, s2, after ? v.succ : x,
                             base.visit(s1).pred, base.visit(s2).succ);
        return true;
      });
}

// ---------------------------------------------------------------------------
// Pruned proposals (DESIGN.md §11)
//
// Each sampler anchors on a uniformly random customer c, draws a random
// start slot in c's candidate row, and takes the first partner at or after
// that slot (cyclically) whose move passes the operator's Local verdict:
// the masks call the same per-operator statements locally_feasible does.
// So a successful draw survives the Local screen by construction, and the
// index arithmetic produces only applicable moves.
//
// The verdicts of 64 slots at a time come from one branch-free pass into a
// bitmask: junctions from the Instance's bitmap, a partner's route,
// position and neighbours from its Solution::Visit record, loads from
// route_stats.  A partner that is unrouted or on the wrong route still
// reads a valid route (its index clamped) and has its verdict masked off.
// Words are scanned from the start slot's word, so a row of at most 64
// partners is one word and a longer one is walked a word at a time.
// ---------------------------------------------------------------------------

namespace {

/// Verdict bits of slots [64 w, 64 w + 64) of `nb`: bit b is ok(nb[64 w + b]).
template <typename Ok>
std::uint64_t slot_mask(std::span<const std::int32_t> nb, std::size_t w,
                        Ok& ok) {
  const std::size_t first = w * 64;
  const std::size_t count = std::min<std::size_t>(64, nb.size() - first);
  std::uint64_t bits = 0;
  for (std::size_t b = 0; b < count; ++b) {
    bits |= static_cast<std::uint64_t>(ok(nb[first + b])) << b;
  }
  return bits;
}

/// The partner a cyclic walk of `nb` from a random start slot takes: the
/// first whose slot bit is set and that `accept` (a second-stage test, run
/// in walk order on set slots only) takes; -1 when none does or `nb` is
/// empty.  Draws exactly one number, the start, uniform over the row, and
/// none for an empty row.
template <typename Ok, typename Accept>
int pick_partner(std::span<const std::int32_t> nb, Rng& rng, Ok&& ok,
                 Accept&& accept) {
  if (nb.empty()) return -1;
  const auto start = static_cast<std::size_t>(rng.below(nb.size()));
  const auto take = [&](std::size_t w, std::uint64_t bits) {
    for (; bits != 0; bits &= bits - 1) {
      const int v = nb[w * 64 + static_cast<std::size_t>(
                                   std::countr_zero(bits))];
      if (accept(v)) return v;
    }
    return -1;
  };
  const std::size_t words = (nb.size() + 63) / 64;
  const std::size_t w0 = start >> 6;
  const std::uint64_t from_start = ~std::uint64_t{0} << (start & 63);
  const std::uint64_t first = slot_mask(nb, w0, ok);
  int u = take(w0, first & from_start);
  for (std::size_t w = w0 + 1; u < 0 && w < words; ++w) {
    u = take(w, slot_mask(nb, w, ok));
  }
  for (std::size_t w = 0; u < 0 && w < w0; ++w) {
    u = take(w, slot_mask(nb, w, ok));
  }
  return u < 0 ? take(w0, first & ~from_start) : u;
}

constexpr auto kAnyPartner = [](int) { return true; };

}  // namespace

std::optional<Move> MoveEngine::propose_relocate_pruned(const Solution& base,
                                                        Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 2 || base.num_routes() < 2) return std::nullopt;
  const int c = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int r1 = base.route_of(c);
  if (r1 < 0) return std::nullopt;
  // Insert c directly before or after its candidate partner u; the side is
  // fixed by which junction direction is TW-reachable (an rng bit, drawn
  // after the pick, breaks the tie when both are).  `sides` gives the
  // Local verdicts of inserting c after and before v.
  const auto sides = [&](int v, const Solution::Visit& at) {
    const double load2 = base.route_stats(std::max(at.route, 0)).load;
    return std::pair{relocate_local(c, load2, v, at.succ),
                     relocate_local(c, load2, at.pred, v)};
  };
  const int u = pick_partner(
      cands_->neighbors(c), rng,
      [&](int v) {
        const Solution::Visit& at = base.visit(v);
        const auto [after, before] = sides(v, at);
        return (at.route >= 0) & (at.route != r1) & (after | before);
      },
      kAnyPartner);
  if (u < 0) return std::nullopt;
  const Solution::Visit& at = base.visit(u);
  const auto [a, b] = sides(u, at);
  const int side = a && b ? static_cast<int>(rng.below(2)) : (a ? 1 : 0);
  return Move{MoveType::Relocate, r1, at.route, base.position_of(c),
              at.position + side};
}

std::optional<Move> MoveEngine::propose_exchange_pruned(const Solution& base,
                                                        Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 2) return std::nullopt;
  const int c1 = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const Solution::Visit& anchor = base.visit(c1);
  const int r1 = anchor.route;
  if (r1 < 0) return std::nullopt;
  const int p1 = anchor.pred;
  const int s1 = anchor.succ;
  const double load1 = base.route_stats(r1).load;
  const int c2 = pick_partner(
      cands_->neighbors(c1), rng,
      [&](int v) {
        const Solution::Visit& at = base.visit(v);
        const double load2 = base.route_stats(std::max(at.route, 0)).load;
        return (at.route >= 0) & (at.route != r1) &
               exchange_local(c1, p1, s1, load1, v, at.pred, at.succ, load2);
      },
      kAnyPartner);
  if (c2 < 0) return std::nullopt;
  return Move{MoveType::Exchange, r1, base.route_of(c2), anchor.position,
              base.position_of(c2)};
}

std::optional<Move> MoveEngine::propose_two_opt_pruned(const Solution& base,
                                                       Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 2) return std::nullopt;
  const int c1 = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const Solution::Visit& anchor = base.visit(c1);
  const int r = anchor.route;
  if (r < 0) return std::nullopt;
  const int pc = anchor.position;
  // Reversing [lo+1, hi] creates the junctions (route[lo], route[hi]) and
  // (route[lo+1], route[hi+1]) — the anchor/partner pair plus the rejoin;
  // adjacent positions would be a no-op reversal.  route[lo + 1] and
  // route[hi + 1] are the successors of route[lo] and route[hi].  Few
  // candidates share the anchor's route, so the mask holds only the route
  // and gap tests and the junctions are tested second, in walk order.
  const int c2 = pick_partner(
      cands_->neighbors(c1), rng,
      [&](int v) {
        const Solution::Visit& at = base.visit(v);
        return (at.route == r) & (std::abs(at.position - pc) >= 2);
      },
      [&](int v) {
        const Solution::Visit& at = base.visit(v);
        const bool forward = pc < at.position;
        const int lo = forward ? c1 : v;
        const int hi = forward ? v : c1;
        const int lo_next = forward ? anchor.succ : at.succ;
        const int hi_next = forward ? at.succ : anchor.succ;
        return two_opt_local(lo, lo_next, hi, hi_next);
      });
  if (c2 < 0) return std::nullopt;
  const int lo = std::min(pc, base.position_of(c2));
  const int hi = std::max(pc, base.position_of(c2));
  return Move{MoveType::TwoOpt, r, r, lo + 1, hi};
}

std::optional<Move> MoveEngine::propose_two_opt_star_pruned(
    const Solution& base, Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 2) return std::nullopt;
  const int c1 = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const Solution::Visit& anchor = base.visit(c1);
  const int r1 = anchor.route;
  if (r1 < 0) return std::nullopt;
  const int pc = anchor.position;
  const double load1 = base.route_stats(r1).load;
  // Cut after c1 and before u: the crossed tails create the junction
  // (c1, u) plus the mirror junction (pred(u), succ(c1)).  The prefix-load
  // checks read the cum_load cache as locally_feasible does; they run
  // second, in walk order, on the slots whose junctions pass.
  const double prefix1 = prefix_load(base, r1, pc + 1);
  const int head1 = anchor.succ;
  const int u = pick_partner(
      cands_->neighbors(c1), rng,
      [&](int v) {
        const Solution::Visit& at = base.visit(v);
        return (at.route >= 0) & (at.route != r1) &
               cross_junctions_ok(c1, head1, at.pred, v);
      },
      [&](int v) {
        const Solution::Visit& at = base.visit(v);
        return cross_loads_fit(prefix1, load1,
                               prefix_load(base, at.route, at.position),
                               base.route_stats(at.route).load);
      });
  if (u < 0) return std::nullopt;
  // i >= 1 and j < n2 rule out both forbidden cut pairs.
  return Move{MoveType::TwoOptStar, r1, base.route_of(u), pc + 1,
              base.position_of(u)};
}

std::optional<Move> MoveEngine::propose_or_opt_pruned(const Solution& base,
                                                      Rng& rng) const {
  const int n = inst_->num_customers();
  if (n < 3) return std::nullopt;
  const int c = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const Solution::Visit& anchor = base.visit(c);
  const int r = anchor.route;
  if (r < 0) return std::nullopt;
  const auto& route = base.route(r);
  const int len = static_cast<int>(route.size());
  if (len < 3) return std::nullopt;
  const int i = anchor.position;
  if (i + 1 >= len) return std::nullopt;  // segment is [i, i+1]
  // Closing the gap the segment leaves is partner-independent: reject the
  // anchor before walking when that junction alone fails.
  if (!or_opt_gap_ok(anchor.pred, at_or_depot(route, i + 2))) {
    return std::nullopt;
  }
  const int seg_tail = anchor.succ;
  // Re-insert the segment directly after u, creating junctions (u, c) and
  // (seg_tail, succ(u)).  j indexes the route with the segment removed:
  // j = pv + 1 before the gap, pv - 1 after it.  u must not be the segment
  // itself, nor its predecessor (j == i would put the segment back), so
  // positions i - 1, i and i + 1 are excluded; every other position of the
  // route gives j <= len - 2, and u's successor in the segment-removed
  // route is its successor in the route.
  const auto to_removed_j = [&](int pv) {
    return (pv > i + 1 ? pv - 2 : pv) + 1;
  };
  const int u = pick_partner(
      cands_->neighbors(c), rng,
      [&](int v) {
        const Solution::Visit& at = base.visit(v);
        const bool outside_segment =
            static_cast<unsigned>(at.position - (i - 1)) > 2U;
        return (at.route == r) & outside_segment &
               or_opt_insert_ok(v, c, seg_tail, at.succ);
      },
      kAnyPartner);
  if (u < 0) return std::nullopt;
  return Move{MoveType::OrOpt, r, r, i, to_removed_j(base.position_of(u))};
}

}  // namespace tsmo
