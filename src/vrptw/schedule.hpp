#pragma once

// Detailed route schedule analytics: per-visit arrival / service-begin /
// departure times, per-visit tardiness, and Savelsbergh-style forward time
// slack (how far the whole suffix of the route can be delayed without
// creating new tardiness).  Used by the exact feasibility screen, the
// diagnostics in instance_tool, and tests.

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "vrptw/instance.hpp"

namespace tsmo {

class Solution;

struct RouteSchedule {
  std::vector<double> arrival;    ///< arrival time at each position
  std::vector<double> begin;      ///< service start (>= ready)
  std::vector<double> departure;  ///< begin + service
  std::vector<double> lateness;   ///< max(arrival - due, 0) per position
  /// forward_slack[i] (size = route size + 1): the largest delay of the
  /// *arrival* at position i that creates no new lateness at i or any
  /// later visit; index size() refers to the depot return.  Waiting time
  /// absorbs delay (Savelsbergh's forward time slack, generalized to
  /// soft windows: already-late visits tolerate zero additional delay).
  std::vector<double> forward_slack;
  double depot_return = 0.0;      ///< arrival back at the depot
  double depot_lateness = 0.0;    ///< lateness of the depot return
  double total_tardiness = 0.0;   ///< sum of all lateness incl. depot

  std::size_t size() const noexcept { return arrival.size(); }

  /// Computes the full schedule of a route (customer indices, depot
  /// endpoints implicit).  Empty route yields an empty schedule.
  static RouteSchedule compute(const Instance& inst,
                               std::span<const int> route);

  /// Same schedule for route `r` of an evaluated Solution, reading arc
  /// lengths from its RouteCache instead of the distance matrix (bitwise
  /// identical values); falls back to the span walk on dirty solutions.
  static RouteSchedule compute(const Solution& s, int r);
};

/// The slack test of one insertion, shared by insertion_keeps_schedule and
/// I1's insertion columns.  A visit leaving its predecessor at
/// `depart_pred` arrives `to_c` later, starts at max(arrival, `ready`),
/// leaves after `service` and reaches the successor `c_to_succ` later;
/// the result is how far that pushes the successor's old arrival
/// `succ_arrival`, or NaN when the visit itself arrives after `due`.  The
/// insertion adds no lateness exactly when `push <= forward slack` of the
/// successor (NaN compares false).  The lateness mark is added rather
/// than selected so a loop over many visits stays branch-free; adding 0
/// can only turn a -0 push into +0, which compares the same.
inline double insertion_push(double depart_pred, double to_c, double ready,
                             double due, double service, double c_to_succ,
                             double succ_arrival) noexcept {
  const double arrival = depart_pred + to_c;
  const double reach_succ = std::max(arrival, ready) + service + c_to_succ;
  return (reach_succ - succ_arrival) +
         (arrival > due ? std::numeric_limits<double>::quiet_NaN() : 0.0);
}

/// True when inserting customer `c` at `position` of `route` keeps the
/// route free of (additional) tardiness — the exact counterpart of the
/// paper's local criterion, O(1) given the precomputed slack.
/// `schedule` must be compute()'d from the same route.
bool insertion_keeps_schedule(const Instance& inst,
                              std::span<const int> route,
                              const RouteSchedule& schedule, int c,
                              std::size_t position);

}  // namespace tsmo
