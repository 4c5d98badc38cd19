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

#include "parallel/worker_team.hpp"

namespace tsmo {

/// One synchronous round (§III.C) on `team`'s clock: a neighborhood of
/// `neighborhood` candidates, capped by the budget left, is split among
/// the master and its workers, and the master selects once every
/// worker's chunk is back.  False when the budget leaves no room.
/// SyncTsmo's free-running mode and the DES's sim-sync run it.
bool sync_round(SearchState& state, int neighborhood, int processors,
                Team& team);

class SyncTsmo : public MasterWorkerTsmo {
 public:
  using MasterWorkerTsmo::MasterWorkerTsmo;

  /// Deterministic mode splits the neighborhood into a fixed balanced
  /// `processors`-way partition whose chunks carry schedule-derived RNG
  /// seeds, and reassembles the results in ticket order.
  RunResult run() const;
};

}  // namespace tsmo
