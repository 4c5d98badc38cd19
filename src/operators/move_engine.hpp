#pragma once

// MoveEngine: proposal, feasibility screening, delta evaluation and
// application of the five operators.
//
// Delta evaluation never materializes a modified route: a move touches at
// most two routes, and for each the engine seeds an IncrementalRouteEval
// from the base solution's RouteCache prefix, pushes only the spliced-in
// visits, and closes with the cached tail (early-terminating once the
// departure time rejoins the cached schedule).  That makes evaluate()
// amortized O(1)-O(k) in the disturbed suffix length instead of O(route
// length) plus two route copies, while staying bitwise identical to
// build_modified + evaluate_route (evaluate_full, kept as the reference
// implementation for tests and benchmarks).  Only the *selected* neighbor
// of an iteration is materialized by applying the move.

#include <optional>
#include <span>
#include <vector>

#include "operators/move.hpp"
#include "util/rng.hpp"
#include "vrptw/candidate_list.hpp"
#include "vrptw/instance.hpp"
#include "vrptw/solution.hpp"

namespace tsmo {

class MoveEngine {
 public:
  explicit MoveEngine(const Instance& inst) : inst_(&inst) {}

  const Instance& instance() const noexcept { return *inst_; }

  /// Switches proposal sampling to the pruned mode (DESIGN.md §11): move
  /// endpoints are drawn from `cands` k-NN lists instead of uniformly.
  /// nullptr restores legacy uniform sampling.  The list is borrowed — the
  /// caller keeps it alive for the engine's lifetime (engines share one
  /// immutable list per run).  Pricing and application are unaffected:
  /// only which moves get proposed changes, so determinism per (seed,
  /// candidate_k) holds.
  void set_candidate_list(const CandidateList* cands) noexcept {
    cands_ = cands;
  }
  const CandidateList* candidate_list() const noexcept { return cands_; }

  /// The paper's local feasibility criterion (§II.B): new junction edges
  /// must satisfy a_i + c_i + t_{i,k} <= b_k, and the receiving route's
  /// demand must stay within capacity.  Purely static — O(1) for every
  /// operator (2-opt* prefix loads come from the cumulative-load cache).
  bool locally_feasible(const Solution& base, const Move& m) const;

  /// Capacity part of the screen only (always enforced in every mode).
  bool capacity_feasible(const Solution& base, const Move& m) const;

  /// Exact screen: capacity plus "the move does not increase the summed
  /// tardiness of the routes it touches".  Incremental re-schedule of the
  /// disturbed suffixes only.
  bool exact_feasible(const Solution& base, const Move& m) const;

  /// Dispatches on the screening mode.
  bool screened_feasible(const Solution& base, const Move& m,
                         FeasibilityScreen screen) const;

  /// Structural validity of the move against this solution (indices in
  /// range, operator preconditions).  Feasibility is separate.
  bool applicable(const Solution& base, const Move& m) const;

  /// Objectives of `base` with `m` applied; `base` is not modified and
  /// must be evaluated (its RouteCaches seed the incremental evaluation).
  /// Bitwise identical to evaluate_full.
  Objectives evaluate(const Solution& base, const Move& m) const;

  /// Prices every move of `moves` against the same base in one flat pass:
  /// the incremental evaluator (and with it the SoA window/service
  /// streams) is hoisted out of the per-move loop, so pricing a whole
  /// generated neighborhood touches the prefix caches back to back instead
  /// of re-entering evaluate() per move.  out[i] is bitwise identical to
  /// evaluate(base, moves[i]) — same arithmetic, same order, merely
  /// batched (the differential fuzz asserts this).
  void evaluate_batch(const Solution& base, std::span<const Move> moves,
                      std::vector<Objectives>& out) const;

  /// Reference implementation: rebuilds the modified routes in scratch
  /// buffers and re-evaluates them from scratch.  Kept for differential
  /// tests and benchmarks of the delta path.
  Objectives evaluate_full(const Solution& base, const Move& m) const;

  /// Applies `m` to `s` in place (splicing the route vectors directly)
  /// and re-evaluates the affected routes.
  void apply(Solution& s, const Move& m) const;

  /// Features the move creates (checked against the tabu list).
  MoveAttrs created_attrs(const Solution& base, const Move& m) const;

  /// Features the move destroys (pushed into the tabu list on acceptance).
  MoveAttrs destroyed_attrs(const Solution& base, const Move& m) const;

  /// Draws a random structurally-valid move of type `t` passing the
  /// screen, or nullopt after `max_attempts` failed draws.
  std::optional<Move> propose(
      MoveType t, const Solution& base, Rng& rng, int max_attempts = 12,
      FeasibilityScreen screen = FeasibilityScreen::Local) const;

 private:
  /// Delta-evaluated (distance, tardiness, emptiness) of the one or two
  /// routes `m` modifies, computed against the base RouteCaches without
  /// materializing the routes.
  struct RouteDeltas {
    double dist1 = 0.0, tard1 = 0.0;
    double dist2 = 0.0, tard2 = 0.0;
    bool empty1 = false, empty2 = false;
  };
  /// `eval` is caller-provided so evaluate_batch can reuse one accumulator
  /// (and its resolved SoA pointers) across a whole batch.
  RouteDeltas delta_routes(const Solution& base, const Move& m,
                           IncrementalRouteEval& eval) const;

  /// Chain-merges one move's route deltas into full Objectives, replaying
  /// Solution::evaluate's summation order bitwise (shared by evaluate and
  /// evaluate_batch).
  Objectives combine_deltas(const Solution& base, const Move& m,
                            const RouteDeltas& d) const;

  /// Fills `out1`/`out2` with the new contents of routes m.r1 / m.r2
  /// (`out2` untouched for intra-route moves).
  void build_modified(const Solution& base, const Move& m,
                      std::vector<int>& out1, std::vector<int>& out2) const;

  /// True when traversing a -> b cannot locally violate b's window:
  /// a_a + c_a + t_{a,b} <= b_b (indices may be 0 == depot), read from
  /// the instance's junction bitmap.
  bool edge_ok(int a, int b) const noexcept {
    return inst_->junction_ok(a, b);
  }

  /// The Local criterion of each operator, stated once over what the move
  /// reads: the sites at each junction it creates and the loads of the
  /// routes it fills.  locally_feasible, the uniform draws and the pruned
  /// samplers' masks all decide through these, and capacity_feasible
  /// through their load halves (relocate_fits, exchange_fits,
  /// cross_loads_fit).  Conjuncts are joined with `&`, so each verdict is
  /// one branch-free expression.
  ///
  /// Relocate c into a route of load `load2`, between `pred` and `succ`.
  bool relocate_fits(int c, double load2) const noexcept;
  bool relocate_local(int c, double load2, int pred, int succ) const noexcept;
  /// Swap c1 (between pred1 and succ1, on a route of load1) with c2.
  bool exchange_fits(int c1, double load1, int c2,
                     double load2) const noexcept;
  bool exchange_local(int c1, int pred1, int succ1, double load1, int c2,
                      int pred2, int succ2, double load2) const noexcept;
  /// Reverse first..last, which sit between `pred` and `succ`.
  bool two_opt_local(int pred, int first, int last,
                     int succ) const noexcept;
  /// Cross two tails: each route's prefix load (through its cut) with the
  /// other's remaining load, and each cut's tail with the other's head.
  bool cross_loads_fit(double prefix1, double load1, double prefix2,
                       double load2) const noexcept;
  bool cross_junctions_ok(int tail1, int head1, int tail2,
                          int head2) const noexcept;
  bool two_opt_star_local(double prefix1, double load1, double prefix2,
                          double load2, int tail1, int head1, int tail2,
                          int head2) const noexcept;
  /// Re-insert the segment s1 s2 between pred and succ; gap_pred and
  /// gap_succ meet where it was.
  bool or_opt_insert_ok(int pred, int s1, int s2, int succ) const noexcept;
  bool or_opt_gap_ok(int gap_pred, int gap_succ) const noexcept;
  bool or_opt_local(int pred, int s1, int s2, int succ, int gap_pred,
                    int gap_succ) const noexcept;

  /// Uniform draws (candidate_k 0): up to `max_attempts` draws of one
  /// operator, each judged from the drawn customers' Visit records.
  std::optional<Move> uniform_relocate(const Solution& base, Rng& rng,
                                       int max_attempts,
                                       FeasibilityScreen screen) const;
  std::optional<Move> uniform_exchange(const Solution& base, Rng& rng,
                                       int max_attempts,
                                       FeasibilityScreen screen) const;
  std::optional<Move> uniform_two_opt(const Solution& base, Rng& rng,
                                      int max_attempts,
                                      FeasibilityScreen screen) const;
  std::optional<Move> uniform_two_opt_star(const Solution& base, Rng& rng,
                                           int max_attempts,
                                           FeasibilityScreen screen) const;
  std::optional<Move> uniform_or_opt(const Solution& base, Rng& rng,
                                     int max_attempts,
                                     FeasibilityScreen screen) const;

  /// Pruned variants: anchor on a uniform customer, then take the partner
  /// from its candidate list by one mask pass over the row (DESIGN.md §11).
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

  const Instance* inst_;
  const CandidateList* cands_ = nullptr;
  mutable std::vector<int> scratch1_;
  mutable std::vector<int> scratch2_;
};

}  // namespace tsmo
