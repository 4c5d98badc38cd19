#pragma once

// Asynchronous master-worker TSMO (§III.D, Algorithm 2).
//
// The master distributes neighborhood chunks but "does not wait in all
// cases for the workers to continue": after finishing its own chunk it
// consults a decision function and proceeds to selection with whatever has
// been evaluated so far.  Straggler results join the candidate pool of a
// later iteration, so the search "can select solutions that were neighbors
// of a previous solution" — the dynamics illustrated in the paper's Fig. 1.
//
// Decision function (Algorithm 2) — continue when any of:
//   c1  at least one worker is idle (finished its chunk)
//   c2  some collected neighbor dominates the current solution
//   c3  the master has waited too long (2 ms on the wall clock; a
//       threshold in virtual time on the DES)
//   c4  the evaluation budget is exhausted

#include "parallel/worker_team.hpp"

namespace tsmo {

/// Deterministic straggler model (DESIGN.md §7): the probability that a
/// non-leading chunk arrives one iteration late, in async-det and in every
/// hybrid-det island.
inline constexpr double kDeferProbability = 0.25;

/// Algorithm 2's master over a Team of `processors - 1` workers.  The
/// team sets the clock: AsyncTsmo and every free-running hybrid island
/// drive a WorkerTeam, sim-async and every sim-hybrid island the DES's.
class AsyncMaster {
 public:
  /// Initialize `state` before the first iterate().
  AsyncMaster(SearchState& state, int processors, Team& team);

  /// One master iteration: hand chunks of the current solution to idle
  /// workers, generate the master's own chunk, wait while the decision
  /// function says so, then select from everything collected.  nullopt
  /// when the budget ran out with nothing left to select from.
  std::optional<SearchState::StepOutcome> iterate();

 private:
  SearchState* state_;
  Team* team_;
  int chunk_;
  std::vector<bool> busy_;
  std::int64_t inflight_ = 0;  ///< evaluations requested, not yet returned
  std::vector<Candidate> pool_;
};

class AsyncTsmo : public MasterWorkerTsmo {
 public:
  using MasterWorkerTsmo::MasterWorkerTsmo;

  /// The free-running mode honors ctx.stall_restart for the master.
  /// Deterministic mode dispatches the full `processors`-way chunk set
  /// every iteration with schedule-derived seeds, reassembles the results
  /// in ticket order, and defers a seeded random subset of non-leading
  /// chunks to the next iteration's pool (kDeferProbability) — the
  /// paper's "neighbors of a previous solution" dynamics (Fig. 1) without
  /// arrival-order dependence.
  RunResult run() const;
};

}  // namespace tsmo
