#include "parallel/sync_tsmo.hpp"

#include <algorithm>

#include "util/profiler.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

std::optional<SearchState::StepOutcome> sync_round(SearchState& state,
                                                   int neighborhood,
                                                   int processors,
                                                   Team& team) {
  const int want = static_cast<int>(std::min<std::int64_t>(
      neighborhood, state.params().max_evaluations - state.evaluations()));
  if (want <= 0) return std::nullopt;

  // Distribute the neighborhood among master + workers.
  const int chunk = want / processors;
  int dispatched = 0;
  for (int w = 0; chunk > 0 && w < team.num_workers(); ++w) {
    team.dispatch(w, state.current(), chunk);
    ++dispatched;
  }
  if (dispatched > 0) TSMO_COUNT_N("sync.chunks_dispatched", dispatched);
  std::vector<Candidate> pool =
      state.generate_candidates(want - dispatched * chunk);
  team.master_generated(pool.size());

  // Barrier: wait for every worker's part before selecting.
  team.barrier(dispatched, [&](GenResult& result) {
    state.charge_evaluations(
        static_cast<std::int64_t>(result.candidates.size()));
    pool.insert(pool.end(), std::make_move_iterator(result.candidates.begin()),
                std::make_move_iterator(result.candidates.end()));
  });
  team.selecting(pool);
  return state.step_with_candidates(pool);
}

RunResult SyncTsmo::run() const {
  return run_master("run.sync", false, [&](SearchState& state,
                                           WorkerTeam& workers) {
    // Deterministic mode's chunk seeds come from a dedicated schedule
    // stream, so the pool depends only on (seed, procs), not on exec width.
    std::optional<SeededTeam> seeded;
    if (options_.deterministic) {
      seeded.emplace(workers, procs_ - 1, params_.seed ^ 0xdead5eedULL);
    }
    Team& team = seeded ? static_cast<Team&>(*seeded) : workers;
    while (!state.budget_exhausted()) {
      TSMO_SPAN("sync.round");
      TSMO_PROFILE_FRAME("sync.round");
      if (!sync_round(state, params_.neighborhood_size, procs_, team)) break;
    }
  });
}

}  // namespace tsmo
