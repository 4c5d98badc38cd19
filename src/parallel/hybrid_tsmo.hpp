#pragma once

// Threaded hybrid of the paper's §V future work: islands of asynchronous
// master-worker groups (§III.D) that exchange improving solutions like the
// collaborative multisearch (§III.E).  The virtual-clock counterpart is
// run_sim_hybrid() in src/sim.
//
// Topology: `islands` masters, each driving `procs_per_island - 1`
// generation workers on its own WorkerTeam (total processors = islands *
// procs_per_island).  A free-running island's master is an AsyncMaster, as
// each run_sim_hybrid island's is on the DES's virtual-clock team; a
// deterministic island's is the StragglerMaster async-det runs.  Every
// island collaborates by the §III.E rule (Collaborator,
// parallel/collaboration.hpp): it owns a full evaluation budget, perturbs
// its parameters (island 0 keeps the base), and after its initial phase
// sends archive improvements to one peer island at a time through a
// rotating communication list.

#include "core/run_context.hpp"
#include "core/run_result.hpp"
#include "core/search_state.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "parallel/options.hpp"

namespace tsmo {

class HybridTsmo {
 public:
  /// The free-running mode honors ctx.stall_restart for every island.
  /// Deterministic mode advances the islands in lock-step rounds
  /// (messages sent in round r arrive in round r+1, sender-ordered); each
  /// island iterates async-det's StragglerMaster on its own team threads.
  HybridTsmo(const Instance& inst, const TsmoParams& params, int islands,
             int procs_per_island, HybridOptions options = {},
             RunContext ctx = {})
      : inst_(&inst),
        params_(params),
        islands_(islands),
        procs_per_island_(procs_per_island),
        options_(options),
        ctx_(ctx) {}

  MultisearchResult run() const;

 private:
  const Instance* inst_;
  TsmoParams params_;
  int islands_;
  int procs_per_island_;
  HybridOptions options_;
  RunContext ctx_;
};

}  // namespace tsmo
