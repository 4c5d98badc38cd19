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
/// worker's chunk is back.  nullopt when the budget leaves no room.
/// Every sync path runs it: free-running and deterministic SyncTsmo, and
/// the DES's sim-sync, sim-sequential (no workers) and sim-coll searchers.
std::optional<SearchState::StepOutcome> sync_round(SearchState& state,
                                                   int neighborhood,
                                                   int processors,
                                                   Team& team);

class SyncTsmo : public MasterWorkerTsmo {
 public:
  using MasterWorkerTsmo::MasterWorkerTsmo;

  /// Deterministic mode runs the same round on a SeededTeam: chunks carry
  /// schedule-derived RNG seeds and come back in ticket order, while the
  /// master generates its own share from its own stream.
  RunResult run() const;
};

}  // namespace tsmo
