#include "parallel/async_tsmo.hpp"

#include <algorithm>
#include <vector>

#include "util/profiler.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

AsyncMaster::AsyncMaster(SearchState& state, int processors, Team& team)
    : state_(&state),
      team_(&team),
      chunk_(std::max(1, state.params().neighborhood_size / processors)),
      busy_(static_cast<std::size_t>(team.num_workers()), false) {}

std::optional<SearchState::StepOutcome> AsyncMaster::iterate() {
  SearchState& state = *state_;
  const std::int64_t budget = state.params().max_evaluations;
  const Team::Take take = [&](GenResult& result) {
    busy_[static_cast<std::size_t>(result.worker_id)] = false;
    inflight_ -= chunk_;
    state.charge_evaluations(
        static_cast<std::int64_t>(result.candidates.size()));
    pool_.insert(pool_.end(),
                 std::make_move_iterator(result.candidates.begin()),
                 std::make_move_iterator(result.candidates.end()));
  };
  // Dispatch fresh chunks (on the current solution) to idle workers, as
  // long as the budget leaves room for the in-flight work.
  for (int w = 0; w < team_->num_workers(); ++w) {
    const std::int64_t headroom = budget - state.evaluations() - inflight_;
    if (busy_[static_cast<std::size_t>(w)] || headroom < chunk_) continue;
    team_->dispatch(w, state.current(), chunk_);
    busy_[static_cast<std::size_t>(w)] = true;
    inflight_ += chunk_;
    TSMO_COUNT("async.chunks_dispatched");
  }

  // Master's own share of the neighborhood.
  const int master_chunk = static_cast<int>(
      std::min<std::int64_t>(chunk_, budget - state.evaluations()));
  if (master_chunk > 0) {
    std::vector<Candidate> mine = state.generate_candidates(master_chunk);
    team_->master_generated(mine.size());
    pool_.insert(pool_.end(), std::make_move_iterator(mine.begin()),
                 std::make_move_iterator(mine.end()));
  }
  team_->collect_arrived(take);

  // --- Algorithm 2: decide whether to keep waiting. ---
  team_->wait(
      [&] {
        const bool c1 = std::any_of(busy_.begin(), busy_.end(),
                                    [](bool b) { return !b; });
        const bool c2 =
            std::any_of(pool_.begin(), pool_.end(), [&](const Candidate& c) {
              return dominates(c.obj, state.current()->objectives());
            });
        const bool c4 = state.budget_exhausted();
        return (team_->use_c1() && c1) || (team_->use_c2() && c2) || c4;
      },
      take);

  if (pool_.empty() && state.budget_exhausted()) return std::nullopt;
  team_->selecting(pool_);
  const SearchState::StepOutcome outcome = state.step_with_candidates(pool_);
  // The considered pool is consumed; results still in flight will join
  // the pool of the iteration in which they arrive.
  pool_.clear();
  return outcome;
}

StragglerMaster::StragglerMaster(SearchState& state, int processors,
                                 WorkerTeam& threads)
    : state_(&state),
      team_(threads, processors, state.params().seed ^ 0xa57c5eedULL),
      procs_(processors),
      chunk_(std::max(1, state.params().neighborhood_size / processors)) {}

std::optional<SearchState::StepOutcome> StragglerMaster::iterate() {
  SearchState& state = *state_;
  // Deferred candidates are already charged, so the headroom needs no
  // in-flight term.
  std::int64_t total = std::min<std::int64_t>(
      static_cast<std::int64_t>(procs_) * chunk_,
      state.params().max_evaluations - state.evaluations());
  if (total <= 0) return std::nullopt;
  int dispatched = 0;
  for (; total > 0; ++dispatched) {
    const int count = static_cast<int>(std::min<std::int64_t>(chunk_, total));
    team_.dispatch(dispatched, state.current(), count);
    total -= count;
  }
  state.trace().record_event(RunTrace::kTagDispatch, team_.last_ticket(),
                             static_cast<std::uint64_t>(dispatched));
  TSMO_COUNT_N("async.chunks_dispatched", dispatched);

  std::vector<Candidate> pool = std::move(deferred_);
  deferred_.clear();
  bool leading = true;
  team_.wait([] { return false; }, [&](GenResult& r) {
    state.charge_evaluations(static_cast<std::int64_t>(r.candidates.size()));
    const bool defer = !leading && team_.schedule().chance(kDeferProbability);
    state.trace().record_event(RunTrace::kTagDefer, r.ticket, defer ? 1 : 0);
    if (defer) TSMO_COUNT("async.chunks_deferred");
    auto& sink = defer ? deferred_ : pool;
    sink.insert(sink.end(), std::make_move_iterator(r.candidates.begin()),
                std::make_move_iterator(r.candidates.end()));
    leading = false;
  });
  return state.step_with_candidates(pool);
}

RunResult AsyncTsmo::run() const {
  const bool det = options_.deterministic;
  return run_master("run.async", !det, [&](SearchState& state,
                                          WorkerTeam& team) {
    if (det) {
      StragglerMaster master(state, procs_, team);
      while (!state.budget_exhausted() && master.iterate()) {
      }
      return;
    }
    AsyncMaster master(state, procs_, team);
    while (!state.budget_exhausted() && master.iterate()) {
    }
  });
}

}  // namespace tsmo
