#pragma once

// Random neighborhood sampling (§III.B): "The Neighborhood Generation draws
// a number of moves, specified in the neighborhood size parameter, from the
// five operators.  For each move one of the operators is chosen at random
// with equal probabilities.  If the operator was unable to find a suitable
// move with regard to the local feasibility criterion, a new random number
// is drawn and possibly a different operator is selected."

#include <array>
#include <vector>

#include "operators/move_engine.hpp"

namespace tsmo {

/// One evaluated neighbor: the move, the resulting objectives, and the tabu
/// features it creates/destroys.  The full solution is only materialized
/// for the neighbor that gets selected (or remembered).
struct Neighbor {
  Move move;
  Objectives obj;
  MoveAttrs creates;
  MoveAttrs destroys;
};

class NeighborhoodGenerator {
 public:
  /// Equal operator probabilities — the paper's configuration.
  explicit NeighborhoodGenerator(const MoveEngine& engine)
      : NeighborhoodGenerator(engine, {1, 1, 1, 1, 1}) {}

  /// Weighted operator selection (weights need not be normalized; a zero
  /// weight disables the operator — used by the operator ablation bench).
  /// All-zero weights are rejected.  `screen` selects the feasibility
  /// screening mode applied to proposals.
  NeighborhoodGenerator(
      const MoveEngine& engine,
      const std::array<double, kNumMoveTypes>& weights,
      FeasibilityScreen screen = FeasibilityScreen::Local);

  /// Draws up to `count` neighbors of `base`, then prices them all in one
  /// MoveEngine::evaluate_batch pass.  May return fewer when the solution
  /// admits too few locally feasible moves (the give-up threshold is
  /// `count * 25` failed operator draws).  Every returned neighbor costs
  /// exactly one evaluation — delta evaluation against `base`'s route
  /// caches, so `base` must be evaluated (as any constructed or applied
  /// solution is).
  std::vector<Neighbor> generate(const Solution& base, int count,
                                 Rng& rng) const;

  /// Applies a neighbor's move to a copy of `base`.
  Solution materialize(const Solution& base, const Neighbor& n) const;

  const MoveEngine& engine() const noexcept { return *engine_; }

  const std::array<double, kNumMoveTypes>& weights() const noexcept {
    return weights_;
  }

  FeasibilityScreen screen() const noexcept { return screen_; }

 private:
  MoveType sample_type(Rng& rng) const;

  const MoveEngine* engine_;
  std::array<double, kNumMoveTypes> weights_;
  double total_weight_ = 0.0;
  FeasibilityScreen screen_ = FeasibilityScreen::Local;
  /// Drawn moves and their prices, reused across generate() calls.
  mutable std::vector<Move> moves_;
  mutable std::vector<Objectives> objs_;
};

}  // namespace tsmo
