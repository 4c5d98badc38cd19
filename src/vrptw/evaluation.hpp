#pragma once

// Route-level evaluation of the CVRPTW objectives.
//
// A vehicle leaves the depot at time 0.  Arriving before a customer's ready
// time means waiting; arriving after the due date accrues tardiness (soft
// time windows, §II).  Travel time equals Euclidean distance (unit speed).
//
// Besides the from-scratch evaluate_route, this module provides the
// incremental-evaluation substrate used by MoveEngine: per-route segment
// summaries (RouteCache) plus a resumable accumulator (IncrementalRouteEval)
// that replays evaluate_route's exact arithmetic from a cached prefix, so
// candidate moves are costed without materializing modified routes while
// remaining bitwise identical to a full re-evaluation (see DESIGN.md,
// "Incremental evaluation").

#include <algorithm>
#include <span>
#include <vector>

#include "vrptw/instance.hpp"

namespace tsmo {

class Solution;

/// Aggregated per-route quantities.  A Solution caches one RouteStats per
/// route so that moves touching one or two routes re-evaluate only those.
struct RouteStats {
  double distance = 0.0;   ///< depot -> c1 -> ... -> ck -> depot
  double load = 0.0;       ///< summed customer demand
  double tardiness = 0.0;  ///< sum over visits (and depot return) of lateness
  double completion = 0.0; ///< time the vehicle is back at the depot

  friend bool operator==(const RouteStats&, const RouteStats&) = default;
};

/// Forward prefix summaries of one route, all accumulated left to right in
/// the same order as evaluate_route — so any prefix value equals, bitwise,
/// the accumulator state of a from-scratch evaluation after that visit.
/// Built by evaluate_route_cached; owned per route by Solution.
///
/// Storage is one flat allocation (5n+1 doubles) to keep Solution copies at
/// one extra allocation per route.
class RouteCache {
 public:
  /// Borrowed raw pointers into the cache's flat storage, resolved once per
  /// priced move so delta pricing reads prefix data without per-access
  /// index arithmetic (DESIGN.md §11).  Valid until the cache is rebuilt;
  /// all pointers are null for an empty route (n == 0).
  struct View {
    const double* arc = nullptr;       ///< n+1 entries (incl. return arc)
    const double* cum_dist = nullptr;  ///< n entries
    const double* cum_load = nullptr;  ///< n entries
    const double* depart = nullptr;    ///< n entries
    const double* cum_tard = nullptr;  ///< n entries
    int n = 0;
    int last_late = -1;
  };

  View view() const noexcept {
    View v;
    v.n = n_;
    v.last_late = last_late_;
    if (n_ > 0) {
      const double* base = data_.data();
      v.arc = base;
      v.cum_dist = base + n_ + 1;
      v.cum_load = v.cum_dist + n_;
      v.depart = v.cum_load + n_;
      v.cum_tard = v.depart + n_;
    }
    return v;
  }

  bool route_empty() const noexcept { return n_ == 0; }
  int size() const noexcept { return n_; }

  /// Arc length into position p: distance(route[p-1], route[p]) with the
  /// depot as route[-1]; index n is the closing arc distance(route[n-1], 0).
  double arc(int p) const noexcept {
    return data_[static_cast<std::size_t>(p)];
  }
  /// Distance accumulated through the arc into position p (excludes the
  /// depot-return arc).
  double cum_dist(int p) const noexcept {
    return data_[static_cast<std::size_t>(n_ + 1 + p)];
  }
  /// Demand accumulated through position p.
  double cum_load(int p) const noexcept {
    return data_[static_cast<std::size_t>(2 * n_ + 1 + p)];
  }
  /// Departure time from position p (service completed).
  double depart(int p) const noexcept {
    return data_[static_cast<std::size_t>(3 * n_ + 1 + p)];
  }
  /// Tardiness accumulated through position p (excludes the depot return).
  double cum_tard(int p) const noexcept {
    return data_[static_cast<std::size_t>(4 * n_ + 1 + p)];
  }
  /// Largest position with strictly positive lateness; size() denotes the
  /// depot return, -1 a fully punctual route.  Lets suffix re-propagation
  /// stop adding tardiness terms once the tail is known to contribute only
  /// exact zeros.
  int last_late() const noexcept { return last_late_; }

 private:
  friend RouteStats evaluate_route_cached(const Instance& inst,
                                          std::span<const int> route,
                                          RouteCache& cache);

  std::vector<double> data_;
  int n_ = 0;
  int last_late_ = -1;
};

/// Evaluates a single route given as a sequence of customer indices
/// (excluding the depot endpoints).  An empty route yields all-zero stats.
RouteStats evaluate_route(const Instance& inst, std::span<const int> route);

/// evaluate_route plus a rebuild of `cache` in the same pass.  The returned
/// stats and every cached prefix are bitwise identical to what
/// evaluate_route computes (the differential tests assert this).
RouteStats evaluate_route_cached(const Instance& inst,
                                 std::span<const int> route,
                                 RouteCache& cache);

/// Resumable route evaluation: seed the accumulator with a cached prefix,
/// push the spliced-in visits one by one, then close with a cached tail.
/// Every arithmetic step mirrors evaluate_route exactly, so the final
/// (distance, tardiness) are bitwise what a from-scratch evaluation of the
/// modified route would produce — the invariant MoveEngine::evaluate and
/// archive duplicate detection rely on.
///
/// finish_with_tail terminates early: once the running departure time
/// rejoins the cached schedule (waiting at a visit absorbs the shift, the
/// time-slack cutoff), the remaining schedule is known to replay the cached
/// one, and when the cached tail carries no lateness the remaining
/// tardiness terms are exact zeros and only the cached arc lengths remain
/// to be summed.
class IncrementalRouteEval {
 public:
  /// The SoA field pointers are resolved once here, so the per-visit hot
  /// path below is pure pointer arithmetic over three dense double arrays
  /// (bitwise the same values as the Site loads they replace).
  explicit IncrementalRouteEval(const Instance& inst) noexcept
      : inst_(&inst),
        ready_(inst.soa().ready.data()),
        due_(inst.soa().due.data()),
        service_(inst.soa().service.data()) {}

  /// Resets to the depot (empty route prefix).
  void reset() noexcept {
    prev_ = 0;
    time_ = 0.0;
    dist_ = 0.0;
    tard_ = 0.0;
    visits_ = 0;
  }

  /// Adopts the cached state after the first `len` visits of `route`.
  void seed_prefix(std::span<const int> route, const RouteCache::View& v,
                   int len) noexcept {
    if (len <= 0) {
      reset();
      return;
    }
    prev_ = route[static_cast<std::size_t>(len - 1)];
    time_ = v.depart[len - 1];
    dist_ = v.cum_dist[len - 1];
    tard_ = v.cum_tard[len - 1];
    visits_ = len;
  }

  /// Visits customer `c` next (exact evaluate_route arithmetic).
  void push(int c) noexcept {
    const auto ci = static_cast<std::size_t>(c);
    const double d = inst_->distance(prev_, c);
    const double arrival = time_ + d;
    dist_ += d;
    tard_ += std::max(arrival - due_[ci], 0.0);
    time_ = std::max(arrival, ready_[ci]) + service_[ci];
    prev_ = c;
    ++visits_;
  }

  /// Visits route[from..to) in order.
  void push_range(std::span<const int> route, int from, int to) noexcept {
    for (int p = from; p < to; ++p) {
      push(route[static_cast<std::size_t>(p)]);
    }
  }

  /// Visits route[from..to) in reverse order (2-opt segment reversal).
  void push_reversed(std::span<const int> route, int from, int to) noexcept {
    for (int p = to - 1; p >= from; --p) {
      push(route[static_cast<std::size_t>(p)]);
    }
  }

  /// Closes the tour with the depot-return arc.  No-op for an empty route
  /// (evaluate_route's empty-route convention).
  void finish() noexcept {
    if (visits_ == 0) return;
    const double d = inst_->distance(prev_, 0);
    const double back = time_ + d;
    dist_ += d;
    tard_ += std::max(back - inst_->depot().due, 0.0);
  }

  /// Closes the tour with the tail route[from..] of a cached route,
  /// early-terminating once the departure time rejoins the cached schedule.
  void finish_with_tail(std::span<const int> route,
                        const RouteCache::View& v, int from) noexcept;

  double distance() const noexcept { return dist_; }
  double tardiness() const noexcept { return tard_; }
  bool route_empty() const noexcept { return visits_ == 0; }

 private:
  const Instance* inst_;
  const double* ready_;    ///< SoA field pointers (see ctor)
  const double* due_;
  const double* service_;
  int prev_ = 0;
  double time_ = 0.0;
  double dist_ = 0.0;
  double tard_ = 0.0;
  int visits_ = 0;
};

/// Arrival time at the customer occupying `position` within the route
/// (0-based).  Exposed for tests and for diagnostic reporting.
double arrival_time_at(const Instance& inst, std::span<const int> route,
                       std::size_t position);

/// O(1) variant reading the cached departure prefix of an evaluated
/// Solution; falls back to the O(position) walk when the solution has
/// pending dirty routes.
double arrival_time_at(const Solution& s, int route, std::size_t position);

}  // namespace tsmo
