#include "vrptw/schedule.hpp"

#include <algorithm>
#include <cassert>

#include "vrptw/solution.hpp"

namespace tsmo {

namespace {

// Shared forward/backward passes; `arc(p, prev, c)` supplies the length of
// the arc into position p (p == n is the depot return).
template <typename ArcFn>
RouteSchedule compute_impl(const Instance& inst, std::span<const int> route,
                           ArcFn&& arc) {
  RouteSchedule s;
  const std::size_t n = route.size();
  s.arrival.reserve(n);
  s.begin.reserve(n);
  s.departure.reserve(n);
  s.lateness.reserve(n);

  int prev = 0;
  double time = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    const int c = route[p];
    const Site& site = inst.site(c);
    const double arr = time + arc(p, prev, c);
    const double beg = std::max(arr, site.ready);
    s.arrival.push_back(arr);
    s.begin.push_back(beg);
    s.departure.push_back(beg + site.service);
    s.lateness.push_back(std::max(arr - site.due, 0.0));
    s.total_tardiness += s.lateness.back();
    time = beg + site.service;
    prev = c;
  }
  s.depot_return = time + arc(n, prev, 0);
  s.depot_lateness = std::max(s.depot_return - inst.depot().due, 0.0);
  s.total_tardiness += s.depot_lateness;

  // Backward pass: forward_slack[j] = min(room at j, waiting at j + slack
  // downstream).  Index n is the depot return.
  s.forward_slack.assign(n + 1, 0.0);
  s.forward_slack[n] = std::max(inst.depot().due - s.depot_return, 0.0);
  for (std::size_t j = n; j-- > 0;) {
    const Site& site = inst.site(route[j]);
    const double room = std::max(site.due - s.arrival[j], 0.0);
    const double wait = s.begin[j] - s.arrival[j];
    s.forward_slack[j] = std::min(room, wait + s.forward_slack[j + 1]);
  }
  return s;
}

}  // namespace

RouteSchedule RouteSchedule::compute(const Instance& inst,
                                     std::span<const int> route) {
  return compute_impl(inst, route, [&](std::size_t, int prev, int c) {
    return inst.distance(prev, c);
  });
}

RouteSchedule RouteSchedule::compute(const Solution& sol, int r) {
  const std::vector<int>& route = sol.route(r);
  // Empty routes have no cached arcs (the depot-return arc is implicit).
  if (!sol.is_evaluated() || route.empty()) {
    return compute(sol.instance(), route);
  }
  const RouteCache& cache = sol.route_cache(r);
  return compute_impl(sol.instance(), route,
                      [&](std::size_t p, int, int) {
                        return cache.arc(static_cast<int>(p));
                      });
}

bool insertion_keeps_schedule(const Instance& inst,
                              std::span<const int> route,
                              const RouteSchedule& schedule, int c,
                              std::size_t position) {
  assert(position <= route.size());
  assert(schedule.size() == route.size());
  const Site& site = inst.site(c);
  const bool last = position == route.size();
  const int pred = position > 0 ? route[position - 1] : 0;
  const int succ = last ? 0 : route[position];
  const double depart_pred =
      position > 0 ? schedule.departure[position - 1] : 0.0;
  const double succ_arrival =
      last ? schedule.depot_return : schedule.arrival[position];
  return insertion_push(depart_pred, inst.distance(pred, c), site.ready,
                        site.due, site.service, inst.distance(c, succ),
                        succ_arrival) <= schedule.forward_slack[position];
}

}  // namespace tsmo
