#pragma once

// Candidate solution: a fixed fleet of R routes (some possibly empty) over
// the instance's customers, with cached per-route evaluation.
//
// The paper encodes solutions as one permutation string with 0-separators
// (§II.A): every tour starts/ends at the depot, tours are concatenated with
// consecutive zeros collapsed, and one trailing 0 is appended per unused
// vehicle, giving |P| = N + R + 1.  Solution stores routes directly and
// provides a lossless codec to and from that string.

#include <cstdint>
#include <span>
#include <vector>

#include "vrptw/evaluation.hpp"
#include "vrptw/instance.hpp"
#include "vrptw/objectives.hpp"

namespace tsmo {

class Solution {
 public:
  /// All R routes empty.  Evaluated state: zero objectives.
  explicit Solution(const Instance& inst);

  /// Builds from explicit routes (customer indices, depot excluded).
  /// Fewer than R routes are padded with empty ones; more than R throw.
  /// The result is fully evaluated.
  static Solution from_routes(const Instance& inst,
                              std::vector<std::vector<int>> routes);

  /// Decodes the paper's permutation representation.  Throws
  /// std::invalid_argument when the string is malformed (wrong length is
  /// accepted as long as tours fit the fleet; indices must be valid).
  static Solution from_permutation(const Instance& inst,
                                   std::span<const int> perm);

  const Instance& instance() const noexcept { return *inst_; }

  /// Fleet size R == number of route slots (including empty ones).
  int num_routes() const noexcept { return static_cast<int>(routes_.size()); }

  const std::vector<int>& route(int r) const noexcept {
    return routes_[static_cast<std::size_t>(r)];
  }

  /// Grants mutable access to a route and marks it dirty; the next
  /// evaluate() re-evaluates exactly the dirty routes.
  std::vector<int>& mutable_route(int r);

  /// Re-evaluates dirty routes (or everything on first call) and refreshes
  /// the cached objectives.  Idempotent when nothing is dirty.
  void evaluate();

  bool is_evaluated() const noexcept { return evaluated_ && dirty_.empty(); }

  /// Cached objectives; callers must evaluate() after mutation.
  const Objectives& objectives() const noexcept { return objectives_; }

  const RouteStats& route_stats(int r) const noexcept {
    return stats_[static_cast<std::size_t>(r)];
  }

  /// Segment summaries of route r (prefix distance / load / departure /
  /// tardiness arrays), rebuilt by evaluate() alongside route_stats.
  /// MoveEngine's delta evaluation reads these; only valid while
  /// is_evaluated() holds.
  const RouteCache& route_cache(int r) const noexcept {
    return caches_[static_cast<std::size_t>(r)];
  }

  /// f2: number of non-empty routes.
  int vehicles_used() const noexcept;

  /// Indices of the non-empty routes, ascending.  Rebuilt by evaluate();
  /// only valid while is_evaluated() holds.  Because empty routes
  /// contribute exact +0.0 terms, the objective totals summed over just
  /// these routes are bitwise identical to the sum over all routes.
  std::span<const int> active_routes() const noexcept {
    return active_routes_;
  }

  /// Left-to-right running sums of route distance / tardiness over the
  /// first k active routes (k in [0, active_routes().size()]).  Each entry
  /// equals, bitwise, the accumulator state of recompute_totals after that
  /// route — MoveEngine::evaluate seeds its total from here instead of
  /// replaying the whole chain.  Only valid while is_evaluated() holds.
  double prefix_distance(int k) const noexcept {
    return prefix_dist_[static_cast<std::size_t>(k)];
  }
  double prefix_tardiness(int k) const noexcept {
    return prefix_tard_[static_cast<std::size_t>(k)];
  }

  /// Number of non-empty routes with index < r — i.e. the position of
  /// route r in active_routes() when r is non-empty, and the position a
  /// newly filled route r would take when it is empty.  r may equal
  /// num_routes().  Only valid while is_evaluated() holds.
  int active_rank(int r) const noexcept {
    return active_rank_[static_cast<std::size_t>(r)];
  }

  /// Distance / tardiness of the k-th active route, stored contiguously so
  /// summation loops stay load-and-add only.  Bitwise equal to
  /// route_stats(active_routes()[k]).  Only valid while is_evaluated().
  double active_distance(int k) const noexcept {
    return active_dist_[static_cast<std::size_t>(k)];
  }
  double active_tardiness(int k) const noexcept {
    return active_tard_[static_cast<std::size_t>(k)];
  }

  /// Summed load excess over capacity across routes (0 when the operators'
  /// invariant holds).
  double capacity_violation() const noexcept;

  /// True when the solution violates neither time windows nor capacity.
  /// Tables I-IV only admit feasible solutions into the reported fronts.
  bool feasible() const noexcept {
    return objectives_.tardiness == 0.0 && capacity_violation() == 0.0;
  }

  /// Encodes the paper's permutation string, e.g. (0,4,2,0,3,0,1,0,0,0).
  std::vector<int> to_permutation() const;

  /// FNV-1a hash over the canonical permutation (route order preserved).
  std::uint64_t hash() const noexcept;

  /// Where customer c sits: its route and position, and its neighbours
  /// on that route, with 0 (the depot) at either end.  An unrouted
  /// customer reads route and position -1 and both neighbours 0.  One
  /// 16-byte record per customer, rebuilt from the routes by evaluate();
  /// after raw route mutation call evaluate() before relying on it.  The
  /// pruned samplers read a partner's whole record with one load.
  struct Visit {
    std::int32_t route = -1;
    std::int32_t position = -1;
    std::int32_t pred = 0;
    std::int32_t succ = 0;
  };
  const Visit& visit(int customer) const noexcept {
    return visits_[static_cast<std::size_t>(customer)];
  }

  /// Index of the route containing customer c, or -1.
  int route_of(int customer) const noexcept { return visit(customer).route; }

  /// Position of customer c within its route, or -1.
  int position_of(int customer) const noexcept {
    return visit(customer).position;
  }

  /// Checks the structural invariant: every customer appears exactly once
  /// across all routes.  Throws std::logic_error with diagnostics.
  void validate() const;

 private:
  void rebuild_index();
  void recompute_totals();

  const Instance* inst_;
  std::vector<std::vector<int>> routes_;
  std::vector<RouteStats> stats_;
  std::vector<RouteCache> caches_;
  Objectives objectives_;
  std::vector<int> active_routes_;
  std::vector<int> active_rank_;
  std::vector<double> prefix_dist_;
  std::vector<double> prefix_tard_;
  std::vector<double> active_dist_;
  std::vector<double> active_tard_;
  std::vector<int> dirty_;
  bool evaluated_ = false;
  std::vector<Visit> visits_;  // size N+1; [0] unused
};

}  // namespace tsmo
