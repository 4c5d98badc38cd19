#include "construct/i1_insertion.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/profiler.hpp"
#include "vrptw/evaluation.hpp"
#include "vrptw/schedule.hpp"

namespace tsmo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The route I1 is growing, priced position-major.  Each insertion
/// position of the route is a *column*: the arc pred -> succ an inserted
/// customer would split, the schedule values its prices read, and two
/// numbers per active customer — Solomon's c1 there, and the push the
/// insertion gives the successor's arrival (insertion_push, NaN when the
/// customer itself would be late).  The active customers are the
/// unrouted ones that still fit the load; load only grows while a route
/// grows (demands are non-negative, Instance::validate), so one that
/// fails the load test leaves the set for good.
///
/// A column's prices are a pure function of (pred, succ, departure of
/// pred, arrival and begin at succ), so after an insertion a column is
/// re-priced only when one of those changed bit for bit.  Columns before
/// the insertion never change (the prefix schedule is recomputed with
/// the same arithmetic); a column after it keeps its prices when waiting
/// absorbed the delay.  The forward slack is not part of the key: the
/// feasibility test `push <= slack` is redone in every reduction, so a
/// slack that moved either way costs nothing.  Every (customer, position)
/// pair therefore sees exactly the arithmetic of the per-customer scan it
/// replaces (tests/test_construct.cpp keeps that scan as the oracle), in
/// the same tie order: positions ascending with strict < on c1, then
/// customers ascending with strict > on c2.
class GrowingRoute {
 public:
  GrowingRoute(const Instance& inst, const I1Params& p)
      : inst_(inst), p_(p) {}

  /// Starts a route on `seed` over the customers `routed` leaves.
  void open(int seed, const std::vector<bool>& routed) {
    route_.assign(1, seed);
    load_ = inst_.site(seed).demand;
    const SiteSoA& soa = inst_.soa();
    id_.clear();
    ready_.clear();
    due_.clear();
    service_.clear();
    demand_.clear();
    savings_.clear();
    for (int u = 1; u <= inst_.num_customers(); ++u) {
      const auto i = static_cast<std::size_t>(u);
      if (routed[i] || load_ + soa.demand[i] > inst_.capacity()) continue;
      id_.push_back(u);
      ready_.push_back(soa.ready[i]);
      due_.push_back(soa.due[i]);
      service_.push_back(soa.service[i]);
      demand_.push_back(soa.demand[i]);
      savings_.push_back(p_.lambda * inst_.distance(0, u));
    }
    cols_.assign(2, Column{});
    refresh();
  }

  /// Inserts the customer with the largest c2 at its cheapest feasible
  /// position and returns it; -1 when no active customer fits anywhere.
  int grow() {
    const std::size_t n_active = id_.size();
    best_.assign(n_active, kInf);
    for (const Column& col : cols_) {
      // Cheapest feasible c1 per customer; an infeasible position (push
      // above the slack, or NaN) never lowers it.
      const double slack = col.slack;
      const double* c1 = col.c1.data();
      const double* push = col.push.data();
      double* best = best_.data();
      for (std::size_t a = 0; a < n_active; ++a) {
        const bool lower = (push[a] <= slack) & (c1[a] < best[a]);
        best[a] = lower ? c1[a] : best[a];
      }
    }
    // Largest c2 = lambda * t(0, u) - c1, ties to the lowest customer
    // index.  A customer with no feasible position has c2 = -inf and is
    // never taken: nothing ties at -inf before a first pick, and after it
    // best_c2 is finite.
    std::size_t chosen = n_active;
    double best_c2 = -kInf;
    int chosen_id = -1;
    for (std::size_t a = 0; a < n_active; ++a) {
      const double c2 = savings_[a] - best_[a];
      const bool take =
          (c2 > best_c2) | ((c2 == best_c2) & (id_[a] < chosen_id));
      best_c2 = take ? c2 : best_c2;
      chosen_id = take ? id_[a] : chosen_id;
      chosen = take ? a : chosen;
    }
    if (chosen == n_active) return -1;

    // The first position reaching the minimum is the one the ascending
    // strict-< scan keeps.
    std::size_t pos = 0;
    while (!(cols_[pos].push[chosen] <= cols_[pos].slack &&
             cols_[pos].c1[chosen] == best_[chosen])) {
      ++pos;
    }
    const int u = id_[chosen];
    route_.insert(route_.begin() + static_cast<std::ptrdiff_t>(pos), u);
    load_ += demand_[chosen];
    drop(chosen);
    for (std::size_t a = 0; a < id_.size();) {
      if (load_ + demand_[a] > inst_.capacity()) {
        drop(a);
      } else {
        ++a;
      }
    }
    // Column pos now ends at u; the arc u -> old succ is a new column.
    cols_.insert(cols_.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                 Column{});
    refresh();
    return u;
  }

  std::vector<int> take_route() { return std::move(route_); }
  double load() const noexcept { return load_; }

 private:
  struct Column {
    int pred = -1;  // -1: never priced
    int succ = -1;
    double depart_pred = 0.0;
    double arrival_succ = 0.0;  // the depot return for the last column
    double begin_succ = 0.0;    // unused (0) for the last column
    double slack = 0.0;         // forward slack at succ
    std::vector<double> c1;
    std::vector<double> push;
  };

  static bool same_bits(double a, double b) noexcept {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }

  /// Swap-removes active slot `a` (slot order carries no meaning: c2
  /// ties break on the customer index).
  void drop(std::size_t a) {
    const auto remove = [a](auto& v) {
      v[a] = v.back();
      v.pop_back();
    };
    remove(id_);
    remove(ready_);
    remove(due_);
    remove(service_);
    remove(demand_);
    remove(savings_);
    for (Column& col : cols_) {
      remove(col.c1);
      remove(col.push);
    }
  }

  /// Recomputes the schedule, refreshes every column's key and slack, and
  /// re-prices the columns whose key changed.
  void refresh() {
    const RouteSchedule sched = RouteSchedule::compute(inst_, route_);
    const std::size_t n = route_.size();
    for (std::size_t k = 0; k <= n; ++k) {
      Column& col = cols_[k];
      const int pred = k > 0 ? route_[k - 1] : 0;
      const int succ = k < n ? route_[k] : 0;
      const double depart_pred = k > 0 ? sched.departure[k - 1] : 0.0;
      const double arrival_succ = k < n ? sched.arrival[k] : sched.depot_return;
      const double begin_succ = k < n ? sched.begin[k] : 0.0;
      col.slack = sched.forward_slack[k];
      if (col.pred == pred && col.succ == succ &&
          same_bits(col.depart_pred, depart_pred) &&
          same_bits(col.arrival_succ, arrival_succ) &&
          same_bits(col.begin_succ, begin_succ)) {
        continue;
      }
      col.pred = pred;
      col.succ = succ;
      col.depart_pred = depart_pred;
      col.arrival_succ = arrival_succ;
      col.begin_succ = begin_succ;
      price(col, k == n);
    }
  }

  /// One pass over rows pred and succ of T prices every active customer
  /// at `col`: Solomon's c1 = alpha1 * detour + alpha2 * delay, where the
  /// delay of the successor's service start is zero at the route end.
  /// t(u, succ) is read from row succ: T is bitwise symmetric.
  void price(Column& col, bool last) {
    const std::size_t n_active = id_.size();
    col.c1.resize(n_active);
    col.push.resize(n_active);
    to_u_.resize(n_active);
    from_u_.resize(n_active);
    // Gather the two rows first so the arithmetic below is one straight,
    // branch-free pass over contiguous arrays.
    const double* row_pred = inst_.distance_row(col.pred).data();
    const double* row_succ = inst_.distance_row(col.succ).data();
    for (std::size_t a = 0; a < n_active; ++a) {
      const auto u = static_cast<std::size_t>(id_[a]);
      to_u_[a] = row_pred[u];
      from_u_[a] = row_succ[u];
    }
    const double removed = p_.mu * inst_.distance(col.pred, col.succ);
    const double ready_succ =
        inst_.soa().ready[static_cast<std::size_t>(col.succ)];
    const double depart = col.depart_pred;
    const double arrival_succ = col.arrival_succ;
    const double begin_succ = col.begin_succ;
    const double alpha1 = p_.alpha1;
    const double alpha2 = 1.0 - p_.alpha1;
    const double* to_u = to_u_.data();
    const double* from_u = from_u_.data();
    const double* ready = ready_.data();
    const double* due = due_.data();
    const double* service = service_.data();
    double* c1 = col.c1.data();
    double* push = col.push.data();
    // Two passes, one output each, so the vectorizer's alias checks stay
    // within its limit.
    for (std::size_t a = 0; a < n_active; ++a) {
      push[a] = insertion_push(depart, to_u[a], ready[a], due[a], service[a],
                               from_u[a], arrival_succ);
    }
    for (std::size_t a = 0; a < n_active; ++a) {
      const double begin_u = std::max(depart + to_u[a], ready[a]);
      const double detour = to_u[a] + from_u[a] - removed;
      const double delay =
          last ? 0.0
               : std::max(begin_u + service[a] + from_u[a], ready_succ) -
                     begin_succ;
      c1[a] = alpha1 * detour + alpha2 * delay;
    }
  }

  const Instance& inst_;
  const I1Params& p_;
  std::vector<int> route_;
  double load_ = 0.0;
  // Active customers, one slot each.
  std::vector<int> id_;
  std::vector<double> ready_, due_, service_, demand_, savings_;
  std::vector<double> best_;
  std::vector<double> to_u_, from_u_;  // t(pred, u), t(u, succ) per slot
  std::vector<Column> cols_;  // one per insertion position, in order
};

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

}  // namespace

I1Params random_i1_params(Rng& rng) {
  I1Params p;
  p.seed_farthest = rng.chance(0.5);
  p.lambda = rng.uniform(1.0, 2.0);
  p.mu = rng.uniform(0.5, 1.5);
  p.alpha1 = rng.uniform(0.0, 1.0);
  return p;
}

Solution construct_i1(const Instance& inst, const I1Params& params) {
  const int n = inst.num_customers();
  std::vector<bool> routed(static_cast<std::size_t>(n) + 1, false);
  int unrouted = n;

  std::vector<std::vector<int>> routes;
  std::vector<double> loads;
  GrowingRoute grower(inst, params);

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
    routed[static_cast<std::size_t>(seed)] = true;
    --unrouted;
    grower.open(seed, routed);

    // --- Grow the route until no feasible insertion remains. ---
    while (unrouted > 0) {
      const int chosen = grower.grow();
      if (chosen < 0) break;
      routed[static_cast<std::size_t>(chosen)] = true;
      --unrouted;
    }
    loads.push_back(grower.load());
    routes.push_back(grower.take_route());
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

Solution construct_i1_random(const Instance& inst, Rng& rng) {
  TSMO_PROFILE_FRAME("construct.i1");
  return construct_i1(inst, random_i1_params(rng));
}

Solution construct_nearest_neighbor(const Instance& inst, Rng& rng) {
  const int n = inst.num_customers();
  std::vector<bool> routed(static_cast<std::size_t>(n) + 1, false);
  int unrouted = n;
  std::vector<std::vector<int>> routes;
  std::vector<double> loads;

  std::vector<int> route;
  double load = 0.0, time = 0.0;
  int prev = 0;
  auto close_route = [&] {
    if (!route.empty()) {
      routes.push_back(route);
      loads.push_back(load);
    }
    route.clear();
    load = 0.0;
    time = 0.0;
    prev = 0;
  };

  while (unrouted > 0) {
    // Nearest unrouted customer reachable feasibly; small random
    // perturbation of the distance diversifies repeated constructions.
    int best = -1;
    double best_d = kInf;
    for (int u = 1; u <= n; ++u) {
      if (routed[static_cast<std::size_t>(u)]) continue;
      const Site& s = inst.site(u);
      if (load + s.demand > inst.capacity()) continue;
      const double arrival = time + inst.distance(prev, u);
      if (arrival > s.due) continue;
      const double back = std::max(arrival, s.ready) + s.service +
                          inst.distance(u, 0);
      if (back > inst.depot().due) continue;
      const double d = inst.distance(prev, u) * rng.uniform(1.0, 1.1);
      if (d < best_d) {
        best_d = d;
        best = u;
      }
    }
    if (best < 0) {
      if (route.empty()) {
        // Not even from the depot: pick any unrouted customer and accept
        // the (soft) violation so construction always terminates.
        for (int u = 1; u <= n; ++u) {
          if (!routed[static_cast<std::size_t>(u)]) {
            best = u;
            break;
          }
        }
      } else {
        if (static_cast<int>(routes.size()) + 1 >= inst.max_vehicles()) {
          // Last slot: stop opening routes, force the rest.
          close_route();
          break;
        }
        close_route();
        continue;
      }
    }
    const Site& s = inst.site(best);
    const double arrival = time + inst.distance(prev, best);
    time = std::max(arrival, s.ready) + s.service;
    route.push_back(best);
    load += s.demand;
    prev = best;
    routed[static_cast<std::size_t>(best)] = true;
    --unrouted;
  }
  close_route();

  for (int u = 1; u <= n && unrouted > 0; ++u) {
    if (routed[static_cast<std::size_t>(u)]) continue;
    if (routes.empty()) {
      routes.push_back({});
      loads.push_back(0.0);
    }
    force_insert(inst, routes, loads, u);
    routed[static_cast<std::size_t>(u)] = true;
    --unrouted;
  }
  return Solution::from_routes(inst, std::move(routes));
}

}  // namespace tsmo
