#include "parallel/sync_tsmo.hpp"

#include <algorithm>

#include "util/profiler.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

namespace {

/// Deterministic mode's round: a fixed balanced `procs`-way partition of
/// the neighborhood, seeded from `schedule`, all of it evaluated by the
/// team and reassembled in ticket order, so the pool is independent of
/// worker scheduling and of the team's width.
bool balanced_round(SearchState& state, int neighborhood, int procs,
                    WorkerTeam& team, Rng& schedule, std::uint64_t& ticket) {
  const int want = static_cast<int>(std::min<std::int64_t>(
      neighborhood, state.params().max_evaluations - state.evaluations()));
  if (want <= 0) return false;
  int dispatched = 0;
  for (int c = 0; c < procs; ++c) {
    const int count = (c + 1) * want / procs - c * want / procs;
    if (count <= 0) continue;
    team.submit(
        GenRequest{state.current(), count, ++ticket, schedule.next(), true});
    ++dispatched;
  }
  state.trace().record_event(RunTrace::kTagDispatch, ticket,
                             static_cast<std::uint64_t>(dispatched));
  TSMO_COUNT_N("sync.chunks_dispatched", dispatched);

  std::vector<GenResult> results;
  team.barrier(dispatched,
               [&](GenResult& r) { results.push_back(std::move(r)); });
  std::sort(results.begin(), results.end(),
            [](const GenResult& a, const GenResult& b) {
              return a.ticket < b.ticket;
            });
  std::vector<Candidate> candidates;
  candidates.reserve(static_cast<std::size_t>(want));
  for (GenResult& r : results) {
    state.charge_evaluations(static_cast<std::int64_t>(r.candidates.size()));
    candidates.insert(candidates.end(),
                      std::make_move_iterator(r.candidates.begin()),
                      std::make_move_iterator(r.candidates.end()));
  }
  state.step_with_candidates(candidates);
  return true;
}

}  // namespace

bool sync_round(SearchState& state, int neighborhood, int processors,
                Team& team) {
  const int want = static_cast<int>(std::min<std::int64_t>(
      neighborhood, state.params().max_evaluations - state.evaluations()));
  if (want <= 0) return false;

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
  state.step_with_candidates(pool);
  return true;
}

RunResult SyncTsmo::run() const {
  return run_master("run.sync", false, [&](SearchState& state,
                                           WorkerTeam& team) {
    // Deterministic mode's chunk seeds come from a dedicated schedule
    // stream, so the logical candidate sequence depends only on (seed,
    // procs) — not on exec width.
    Rng schedule(params_.seed ^ 0xdead5eedULL);
    std::uint64_t ticket = 0;
    const int n = params_.neighborhood_size;
    while (!state.budget_exhausted()) {
      TSMO_SPAN("sync.round");
      TSMO_PROFILE_FRAME("sync.round");
      const bool stepped =
          options_.deterministic
              ? balanced_round(state, n, procs_, team, schedule, ticket)
              : sync_round(state, n, procs_, team);
      if (!stepped) break;
    }
  });
}

}  // namespace tsmo
