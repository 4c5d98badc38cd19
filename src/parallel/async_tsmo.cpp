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

namespace {

/// Deterministic mode's iterations (see AsyncTsmo::run) on `team`, whose
/// width never changes the result.
void run_straggler_schedule(SearchState& state, int procs,
                            WorkerTeam& team) {
  const TsmoParams& params = state.params();
  Rng schedule(params.seed ^ 0xa57c5eedULL);
  const int chunk = std::max(1, params.neighborhood_size / procs);
  std::vector<Candidate> deferred;  // straggler chunks, one iteration late
  std::uint64_t ticket = 0;
  std::vector<GenResult> results;

  while (!state.budget_exhausted()) {
    // Dispatch the full chunk set within the remaining budget (deferred
    // candidates are already charged, so headroom needs no inflight term).
    std::int64_t headroom = params.max_evaluations - state.evaluations();
    std::int64_t total =
        std::min<std::int64_t>(static_cast<std::int64_t>(procs) * chunk,
                               headroom);
    int dispatched = 0;
    while (total > 0) {
      const int count = static_cast<int>(std::min<std::int64_t>(chunk, total));
      team.submit(
          GenRequest{state.current(), count, ++ticket, schedule.next(), true});
      total -= count;
      ++dispatched;
    }
    state.trace().record_event(RunTrace::kTagDispatch, ticket,
                               static_cast<std::uint64_t>(dispatched));
    TSMO_COUNT_N("async.chunks_dispatched", dispatched);

    // Logical collection: every chunk completes, reassembled in ticket
    // order; the seeded straggler model, not arrival order, decides which
    // chunks miss this iteration's selection.
    results.clear();
    {
      TSMO_SPAN_TIMED("async.wait", "async.wait_ns");
      TSMO_PROFILE_FRAME("channel.wait");
      for (int c = 0; c < dispatched; ++c) {
        auto result = team.collect();
        if (!result) break;  // team shut down (cannot happen mid-run)
        results.push_back(std::move(*result));
      }
    }
    std::sort(results.begin(), results.end(),
              [](const GenResult& a, const GenResult& b) {
                return a.ticket < b.ticket;
              });
    std::vector<Candidate> pool = std::move(deferred);
    deferred.clear();
    bool leading = true;
    for (GenResult& r : results) {
      state.charge_evaluations(static_cast<std::int64_t>(r.candidates.size()));
      const bool defer =
          !leading && schedule.chance(kDeferProbability);
      state.trace().record_event(RunTrace::kTagDefer, r.ticket,
                                 defer ? 1 : 0);
      if (defer) TSMO_COUNT("async.chunks_deferred");
      auto& sink = defer ? deferred : pool;
      sink.insert(sink.end(), std::make_move_iterator(r.candidates.begin()),
                  std::make_move_iterator(r.candidates.end()));
      leading = false;
    }
    state.step_with_candidates(pool);
  }
  // Chunks still deferred at exhaustion are dropped, like in-flight
  // results at termination of the wall-clock mode.
}

}  // namespace

RunResult AsyncTsmo::run() const {
  const bool det = options_.deterministic;
  return run_master("run.async", !det, [&](SearchState& state,
                                          WorkerTeam& team) {
    if (det) return run_straggler_schedule(state, procs_, team);
    AsyncMaster master(state, procs_, team);
    while (!state.budget_exhausted() && master.iterate()) {
    }
  });
}

}  // namespace tsmo
