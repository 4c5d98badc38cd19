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
//   c3  the master has waited too long
//   c4  the evaluation budget is exhausted

#include "core/run_context.hpp"
#include "core/run_result.hpp"
#include "core/search_state.hpp"

namespace tsmo {

struct AsyncOptions {
  /// c3 threshold: how long the master keeps waiting for worker results
  /// before proceeding with the partial pool.
  double wait_too_long_ms = 2.0;

  /// Deterministic replay mode (DESIGN.md §7).  The wall-clock decision
  /// function is replaced by a seeded logical schedule: every iteration
  /// dispatches the full `processors`-way chunk set with schedule-derived
  /// seeds, reassembles the results in ticket order, and a seeded
  /// straggler model defers a random subset of non-leading chunks to the
  /// next iteration's pool — reproducing the paper's "neighbors of a
  /// previous solution" dynamics (Fig. 1) without arrival-order
  /// dependence.  The same seed then fingerprints identically for any
  /// `exec_threads`.
  bool deterministic = false;
  /// Worker threads in deterministic mode; 0 selects `processors - 1`.
  /// Execution width only — never affects the result.
  int exec_threads = 0;
  /// Deterministic straggler model: probability that a non-leading chunk
  /// arrives one iteration late.
  double defer_probability = 0.25;
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
