#pragma once

// Simulated executions of the four algorithms on a virtual clock.
//
// These drivers run the REAL search code (the same SearchState /
// MoveEngine / memories as the threaded implementations, and the threaded
// engines' own masters, sync_round and AsyncMaster, on a virtual-clock
// Team); the CostModel only determines how much virtual time each piece
// of work consumes and hence *when worker results become visible to the
// master* — exactly the mechanism that separates the synchronous,
// asynchronous and collaborative strategies in the paper.  sim-coll and
// sim-hybrid are one DES collaboration driver over the threaded engines'
// Collaborator and Peer.  Results carry the virtual runtime in
// RunResult::sim_seconds; the speedup columns of Tables I-IV are
// Ts_sim / Tp_sim.
//
// Everything here is deterministic in (instance, params, processors, seed).
// Each driver takes a RunContext like the threaded engines; its searchers
// attach to the recorder under their index, which is also their trace id,
// as on threads.

#include <functional>

#include "core/run_context.hpp"
#include "core/run_result.hpp"
#include "core/search_state.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "sim/cost_model.hpp"

namespace tsmo {

/// Sequential TSMO with virtual-time accounting (the Ts baseline).
RunResult run_sim_sequential(const Instance& inst, const TsmoParams& params,
                             const CostModel& cost,
                             const RunContext& ctx = {});

/// Synchronous master-worker (§III.C), SyncTsmo's sync_round: the master
/// dispatches chunks, computes its own, and waits at a barrier for the
/// slowest worker (straggler noise applies).
RunResult run_sim_sync(const Instance& inst, const TsmoParams& params,
                       int processors, const CostModel& cost,
                       const RunContext& ctx = {});

/// Per-master-iteration snapshot of the asynchronous search, used by the
/// Fig. 1 trajectory bench: the candidate pool considered (which may mix
/// neighbors generated against earlier current solutions) and the solution
/// selected from it.
struct SimAsyncIterationEvent {
  std::int64_t iteration = 0;
  double virtual_time_s = 0.0;
  std::vector<Objectives> pool;
  Objectives selected;
  bool restarted = false;
};

struct SimAsyncOptions {
  /// c3 threshold in virtual microseconds; <= 0 selects the default of
  /// half a worker-chunk evaluation time.
  double wait_too_long_us = 0.0;
  /// Ablation switches for the decision function's conditions (Algorithm
  /// 2): disabling c1 makes the master ignore idle workers; disabling c2
  /// ignores dominating candidates.  c3 (the timeout) and c4 (the budget)
  /// always apply, so the search cannot deadlock.
  bool use_c1 = true;
  bool use_c2 = true;
  /// Invoked after every master iteration when set.
  std::function<void(const SimAsyncIterationEvent&)> observer;
};

/// Asynchronous master-worker (§III.D, Algorithm 2), AsyncTsmo's master.
RunResult run_sim_async(const Instance& inst, const TsmoParams& params,
                        int processors, const CostModel& cost,
                        SimAsyncOptions options = {},
                        const RunContext& ctx = {});

/// Collaborative multisearch (§III.E) on a discrete-event simulation:
/// searchers, each taking one TSMO step per event, interleave on the
/// virtual timeline and solution messages are delivered with latency
/// (coll-det delivers them a lock-step round later).
MultisearchResult run_sim_multisearch(const Instance& inst,
                                      const TsmoParams& params,
                                      int processors, const CostModel& cost,
                                      const RunContext& ctx = {});

/// The paper's future-work hybrid (§V): `islands` collaborative islands,
/// each an AsyncMaster over `procs_per_island` processors, exchanging
/// improving solutions on run_sim_multisearch's timeline.
MultisearchResult run_sim_hybrid(const Instance& inst,
                                 const TsmoParams& params, int islands,
                                 int procs_per_island,
                                 const CostModel& cost,
                                 const RunContext& ctx = {});

}  // namespace tsmo
