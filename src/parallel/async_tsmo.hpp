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
//   c3  the master has waited too long (2 ms)
//   c4  the evaluation budget is exhausted

#include "core/run_context.hpp"
#include "core/run_result.hpp"
#include "core/search_state.hpp"
#include "parallel/worker_team.hpp"

namespace tsmo {

/// Deterministic straggler model (DESIGN.md §7): the probability that a
/// non-leading chunk arrives one iteration late, in async-det and in every
/// hybrid-det island.
inline constexpr double kDeferProbability = 0.25;

struct AsyncOptions {
  /// Deterministic replay mode (DESIGN.md §7).  The wall-clock decision
  /// function is replaced by a seeded logical schedule: every iteration
  /// dispatches the full `processors`-way chunk set with schedule-derived
  /// seeds, reassembles the results in ticket order, and a seeded
  /// straggler model defers a random subset of non-leading chunks to the
  /// next iteration's pool (kDeferProbability) — reproducing the paper's
  /// "neighbors of a previous solution" dynamics (Fig. 1) without
  /// arrival-order dependence.  The same seed then fingerprints
  /// identically for any `exec_threads`.
  bool deterministic = false;
  /// Worker threads in deterministic mode; 0 selects `processors - 1`.
  /// Execution width only — never affects the result.
  int exec_threads = 0;
};

/// Algorithm 2's free-running master over its own WorkerTeam of
/// `processors - 1` workers.  AsyncTsmo drives one; every free-running
/// hybrid island drives its own.
class AsyncMaster {
 public:
  /// The workers draw from streams of state.params().seed and share
  /// `cands` with the state.  Initialize `state` before the first
  /// iterate().
  AsyncMaster(const Instance& inst, SearchState& state, int processors,
              std::shared_ptr<const CandidateList> cands);

  WorkerTeam& team() noexcept { return team_; }

  /// One master iteration: hand chunks of the current solution to idle
  /// workers, generate the master's own chunk, wait while the decision
  /// function says so, then select from everything collected.  nullopt
  /// when the budget ran out with nothing left to select from.
  std::optional<SearchState::StepOutcome> iterate();

 private:
  /// Moves `result` and every other finished chunk into the pool.
  void drain(std::optional<GenResult> result);

  SearchState* state_;
  WorkerTeam team_;
  int chunk_;
  std::vector<bool> busy_;
  std::int64_t inflight_ = 0;  ///< evaluations requested, not yet returned
  std::vector<Candidate> pool_;
  std::uint64_t ticket_ = 0;
};

class AsyncTsmo {
 public:
  /// The free-running mode honors ctx.stall_restart for the master.
  AsyncTsmo(const Instance& inst, const TsmoParams& params, int processors,
            AsyncOptions options = {}, RunContext ctx = {})
      : inst_(&inst),
        params_(params),
        processors_(processors),
        options_(options),
        ctx_(ctx) {}

  RunResult run() const;

 private:
  RunResult run_deterministic() const;

  const Instance* inst_;
  TsmoParams params_;
  int processors_;
  AsyncOptions options_;
  RunContext ctx_;
};

}  // namespace tsmo
