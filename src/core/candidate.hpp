#pragma once

// A Candidate is an evaluated potential next solution: a move, the
// objectives it yields, its tabu features, and a shared handle on the base
// solution the move applies to.
//
// Keeping the base alive matters for the asynchronous algorithm (§III.D):
// the master may select "solutions that were neighbors of a previous
// solution, but not evaluated at the time the algorithm continued" — i.e.
// candidates whose base is no longer the current solution.  Materializing
// a candidate therefore applies the move to *its own* base, never to the
// current solution.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "operators/neighborhood.hpp"
#include "vrptw/solution.hpp"

namespace tsmo {

struct Candidate {
  Objectives obj;
  Move move;
  MoveAttrs creates;
  MoveAttrs destroys;
  std::shared_ptr<const Solution> base;
  /// Generation worker that evaluated this candidate; -1 when the searcher
  /// produced it itself.  Stamped by WorkerTeam / the DES worker model and
  /// carried into the convergence recorder's contribution attribution.
  std::int16_t origin = -1;
};

/// Wraps evaluated neighbors of `base` into candidates sharing one handle.
std::vector<Candidate> make_candidates(
    const NeighborhoodGenerator& generator,
    std::shared_ptr<const Solution> base, int count, Rng& rng);

/// Applies the candidate's move to a copy of its base.
Solution materialize(const MoveEngine& engine, const Candidate& c);

/// A solution kept without building it: a base handle plus the move that
/// leads from the base to the solution.  A solution that already exists
/// (e.g. one received from a peer) has no move.  M_nondom holds its
/// members this way, so an entry that is evicted before a restart takes
/// it is never built.
struct LazySolution {
  std::shared_ptr<const Solution> base;
  std::optional<Move> move;
};

/// The solution `s` stands for: the base handle itself when there is no
/// move, otherwise a new handle on a copy of the base with the move
/// applied (bitwise what materializing the originating candidate gives).
std::shared_ptr<const Solution> materialize(const MoveEngine& engine,
                                            const LazySolution& s);

/// Indices of the non-dominated members of `candidates` (first occurrence
/// wins among duplicates).
std::vector<std::size_t> nondominated_indices(
    const std::vector<Candidate>& candidates);

}  // namespace tsmo
