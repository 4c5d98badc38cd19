#pragma once

// Synchronous master-worker TSMO (§III.C).
//
// "A very simple parallelization of the GenerateNeighborhood() and
// Evaluate() functions using a master process that distributes the work
// among himself and several worker processes. ... It is synchronized in
// that the master selects the current individual, distributes the work and
// waits to collect all the results."
//
// Behaviour is identical to the sequential algorithm given the combined
// neighborhood — only wall-clock changes — which is why the paper finds
// "the behavior of the synchronous algorithm does not differ from the
// sequential one" and no significant quality difference.

#include "core/run_context.hpp"
#include "core/run_result.hpp"
#include "core/search_state.hpp"

namespace tsmo {

struct SyncOptions {
  /// Deterministic replay mode (DESIGN.md §7): the neighborhood is split
  /// into a fixed `processors`-way logical partition whose chunks carry
  /// schedule-derived RNG seeds, and results are reassembled in ticket
  /// order.  The run is then a pure function of (params, processors) —
  /// the same seed fingerprints identically for any `exec_threads`.
  bool deterministic = false;
  /// Worker threads evaluating the logical chunks in deterministic mode;
  /// 0 selects `processors - 1`.  Execution width only — never affects
  /// the result.
  int exec_threads = 0;
};

class SyncTsmo {
 public:
  /// `processors` counts the master plus its workers (paper: 3, 6, 12).
  SyncTsmo(const Instance& inst, const TsmoParams& params, int processors,
           SyncOptions options = {}, RunContext ctx = {})
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
  SyncOptions options_;
  RunContext ctx_;
};

}  // namespace tsmo
