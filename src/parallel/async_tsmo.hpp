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

/// Deterministic mode's asynchronous master (DESIGN.md §7), for async-det
/// and every hybrid-det island: each iteration hands the full
/// `processors`-way chunk set within the budget to a SeededTeam over
/// `threads`, takes every chunk back in ticket order, and defers each
/// non-leading one to the next iteration's pool with probability
/// kDeferProbability — the paper's "neighbors of a previous solution"
/// dynamics (Fig. 1) without arrival-order dependence.  Chunk seeds
/// (drawn at dispatch) and deferral chances (in ticket order) come from
/// one schedule stream.
class StragglerMaster {
 public:
  /// Initialize `state` before the first iterate().
  StragglerMaster(SearchState& state, int processors, WorkerTeam& threads);

  /// One iteration; nullopt when the budget leaves no room.  Chunks still
  /// deferred when the budget runs out are dropped, like in-flight results
  /// at the end of a free-running run.
  std::optional<SearchState::StepOutcome> iterate();

 private:
  SearchState* state_;
  SeededTeam team_;
  int procs_;
  int chunk_;
  std::vector<Candidate> deferred_;  ///< straggler chunks, one iteration late
};

class AsyncTsmo : public MasterWorkerTsmo {
 public:
  using MasterWorkerTsmo::MasterWorkerTsmo;

  /// The free-running mode runs AsyncMaster and honors ctx.stall_restart
  /// for the master; deterministic mode runs the StragglerMaster.
  RunResult run() const;
};

}  // namespace tsmo
