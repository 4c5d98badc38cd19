#include "parallel/hybrid_tsmo.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "parallel/async_tsmo.hpp"
#include "parallel/collaboration.hpp"

namespace tsmo {

namespace {

/// An island: an asynchronous master over its own workers — Algorithm 2's
/// AsyncMaster when free-running, the StragglerMaster in lock-step rounds.
template <typename Master>
class AsyncIsland final : public Peer {
 public:
  AsyncIsland(const Instance& inst, const TsmoParams& base, int id,
              int islands, int procs,
              std::shared_ptr<const CandidateList> cands,
              ConvergenceRecorder* recorder)
      : Peer(inst, base, id, islands, HybridExchange::salt, cands),
        team_(inst, procs - 1, state.params().seed, std::move(cands)),
        master_(state, procs, team_) {
    if (recorder) {
      team_.enable_heartbeats(*recorder,
                              "island " + std::to_string(id) + " worker");
    }
  }

  std::optional<SearchState::StepOutcome> iterate() override {
    return master_.iterate();
  }

 private:
  WorkerTeam team_;
  Master master_;
};

}  // namespace

MultisearchResult HybridTsmo::run() const {
  const int k = std::max(2, islands_);
  const int procs = std::max(2, procs_per_island_);
  RunScope scope("run.hybrid", params_, ctx_, k, k * (procs - 1));
  const Timer timer;
  // candidate_k is never perturbed, so every island shares one list.
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  if (options_.deterministic) {
    // One thread per island unless exec_threads says otherwise.
    const int exec = options_.exec_threads > 0 ? options_.exec_threads : k;
    return run_lockstep<HybridExchange>(k, exec, timer, scope, [&](int id) {
      return std::make_unique<AsyncIsland<StragglerMaster>>(
          *inst_, params_, id, k, procs, cands, ctx_.recorder);
    });
  }
  return run_islands<HybridExchange>(k, timer, scope, [&](int id) {
    auto island = std::make_unique<AsyncIsland<AsyncMaster>>(
        *inst_, params_, id, k, procs, cands, ctx_.recorder);
    scope.restart_on_stall(island->state, id);
    return island;
  });
}

}  // namespace tsmo
