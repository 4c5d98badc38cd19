#pragma once

// Search parameters.  Paper defaults (§IV table captions): 100,000
// evaluations, neighborhood size 200, restart after 100 unimproving
// iterations, archive size 20, tabu tenure 20.

#include <array>
#include <cstdint>

#include "operators/move.hpp"
#include "util/rng.hpp"

namespace tsmo {

struct TsmoParams {
  std::int64_t max_evaluations = 100000;
  int neighborhood_size = 200;
  int tabu_tenure = 20;
  int archive_capacity = 20;
  /// Size of the medium-term memory M_nondom (the paper does not report
  /// a value; 50 keeps a few dozen restart points without unbounded growth).
  int nondom_capacity = 50;
  /// Iterations without an archive improvement before restarting from the
  /// memories ("if no better solution was found after 100 iterations, a
  /// restart with an individual from the memory was attempted").
  int restart_after = 100;
  /// Aspiration: allow a tabu neighbor that would enter the archive.  The
  /// paper describes no aspiration criterion, so this defaults to off; the
  /// ablation bench flips it.
  bool use_aspiration = false;
  /// Relative selection probabilities of the five operators (Relocate,
  /// Exchange, 2-opt, 2-opt*, or-opt).  The paper gives "each operator the
  /// same chance"; the operator ablation bench zeroes entries.
  std::array<double, kNumMoveTypes> operator_weights{1, 1, 1, 1, 1};
  /// ALNS-style extension (ours, default off to match the paper): adapt
  /// the operator weights online toward the operators whose moves get
  /// selected, re-deriving weights every `adapt_interval` iterations from
  /// selected/offered ratios (floored so no operator dies out).
  bool adaptive_operators = false;
  int adapt_interval = 50;
  /// Feasibility screening of proposed moves (the paper uses the local
  /// criterion; the screening ablation bench compares all modes).
  FeasibilityScreen feasibility_screen = FeasibilityScreen::Local;
  /// Candidate-list pruned neighborhood sampling (DESIGN.md §11): move
  /// endpoints are drawn from per-site k-nearest-neighbor lists (TW
  /// filtered) instead of uniformly.  0 (default) keeps the paper's
  /// uniform sampling — and with it bitwise golden-seed replay of the
  /// legacy mode.  Never perturbed: every searcher of a run must share one
  /// list, and the knob changes the RNG consumption pattern.
  int candidate_k = 0;
  /// Records a RunTrace fingerprint of every search decision (see
  /// util/trace.hpp and DESIGN.md §7).  Runtime toggle; when off the
  /// recording hooks reduce to one branch per step.  Never perturbed.
  bool trace = false;
  /// Enables the telemetry layer (util/telemetry.hpp, DESIGN.md §8) for the
  /// duration of the run.  Pure observation: counters, histograms and spans
  /// only — never consulted by the search, so fingerprints are identical
  /// with telemetry on or off.  Never perturbed.
  ///
  /// These two are the only observation switches here; everything else
  /// that watches or stops a run (stop flag, trace ids, profiler rate,
  /// recorder, introspection hub) is a RunContext (core/run_context.hpp).
  bool telemetry = false;
  std::uint64_t seed = 1;

  /// Perturbs every numeric parameter with N(0, p/4) noise — §III.E: "The
  /// parameters of the algorithm for each, but the first, are disturbed by
  /// a random variable derived from a normal distribution with mean 0 and
  /// a standard deviation that is the quarter of the parameter to be
  /// disturbed."  The evaluation budget and seed are left untouched.
  TsmoParams perturbed(Rng& rng) const;

  /// Clamps all fields to sane lower bounds (used after perturbation).
  void clamp();
};

}  // namespace tsmo
