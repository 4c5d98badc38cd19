#include "parallel/async_tsmo.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/sequential_tsmo.hpp"
#include "parallel/worker_team.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace tsmo {

RunResult AsyncTsmo::run() const {
  if (options_.deterministic) return run_deterministic();
  const int procs = std::max(2, processors_);
  RunScope scope("run.async", params_, ctx_, 1, procs - 1);
  TSMO_TELEMETRY_ONLY(
      if (telemetry::enabled()) {
        telemetry::Registry::instance().set_thread_label("async master");
      })
  Timer timer;
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  SearchState state(*inst_, params_, Rng(params_.seed), cands);
  WorkerTeam team(*inst_, procs - 1, params_.seed, cands);
  if (ctx_.recorder) team.enable_heartbeats(*ctx_.recorder, "async worker");
  scope.attach(state);
  scope.restart_on_stall(state);
  state.initialize();

  const int chunk = std::max(1, params_.neighborhood_size / procs);
  std::vector<bool> busy(static_cast<std::size_t>(team.num_workers()),
                         false);
  std::int64_t inflight = 0;  // evaluations requested but not yet returned
  std::vector<Candidate> pool;
  std::uint64_t ticket = 0;

  auto drain = [&](std::optional<GenResult> result) {
    while (result) {
      busy[static_cast<std::size_t>(result->worker_id)] = false;
      inflight -= static_cast<std::int64_t>(chunk);
      state.charge_evaluations(
          static_cast<std::int64_t>(result->candidates.size()));
      pool.insert(pool.end(),
                  std::make_move_iterator(result->candidates.begin()),
                  std::make_move_iterator(result->candidates.end()));
      result = team.try_collect();
    }
  };

  while (!state.budget_exhausted()) {
    // Dispatch fresh chunks (on the current solution) to idle workers, as
    // long as the budget leaves room for the in-flight work.
    for (int w = 0; w < team.num_workers(); ++w) {
      const std::int64_t headroom = params_.max_evaluations -
                                    state.evaluations() - inflight;
      if (busy[static_cast<std::size_t>(w)] || headroom < chunk) continue;
      team.submit(GenRequest{state.current(), chunk, ++ticket});
      busy[static_cast<std::size_t>(w)] = true;
      inflight += chunk;
      TSMO_COUNT("async.chunks_dispatched");
    }

    // Master's own share of the neighborhood.
    const std::int64_t remaining =
        params_.max_evaluations - state.evaluations();
    const int master_chunk =
        static_cast<int>(std::min<std::int64_t>(chunk, remaining));
    if (master_chunk > 0) {
      std::vector<Candidate> mine = state.generate_candidates(master_chunk);
      pool.insert(pool.end(), std::make_move_iterator(mine.begin()),
                  std::make_move_iterator(mine.end()));
    }
    drain(team.try_collect());

    // --- Algorithm 2: decide whether to keep waiting. ---
    {
      TSMO_SPAN_TIMED("async.wait", "async.wait_ns");
      TSMO_PROFILE_FRAME("channel.wait");
      const Timer wait_timer;
      for (;;) {
        const bool c1 = std::any_of(busy.begin(), busy.end(),
                                    [](bool b) { return !b; });
        const bool c2 = std::any_of(
            pool.begin(), pool.end(), [&](const Candidate& c) {
              return dominates(c.obj, state.current()->objectives());
            });
        const bool c3 = wait_timer.elapsed_ms() >= options_.wait_too_long_ms;
        const bool c4 = state.budget_exhausted();
        if (c1 || c2 || c3 || c4) break;
        drain(team.collect_for(std::chrono::microseconds(200)));
      }
    }

    if (pool.empty() && state.budget_exhausted()) break;
    state.step_with_candidates(pool);
    // The considered pool is consumed; results still in flight will join
    // the pool of the iteration in which they arrive.
    pool.clear();
  }

  // Clears the stall action: the watchdog can no longer touch `state`.
  scope.finish(state.iterations());
  return collect_result(state, "async", timer.elapsed_seconds());
}

RunResult AsyncTsmo::run_deterministic() const {
  const int procs = std::max(2, processors_);
  const int exec =
      options_.exec_threads > 0 ? options_.exec_threads : procs - 1;
  RunScope scope("run.async", params_, ctx_, 1, exec);
  TSMO_TELEMETRY_ONLY(
      if (telemetry::enabled()) {
        telemetry::Registry::instance().set_thread_label("async master");
      })
  Timer timer;
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  SearchState state(*inst_, params_, Rng(params_.seed), cands);
  WorkerTeam team(*inst_, exec, params_.seed, cands);
  if (ctx_.recorder) team.enable_heartbeats(*ctx_.recorder, "async worker");
  scope.attach(state);
  state.initialize();
  Rng schedule(params_.seed ^ 0xa57c5eedULL);

  const int chunk = std::max(1, params_.neighborhood_size / procs);
  std::vector<Candidate> deferred;  // straggler chunks, one iteration late
  std::uint64_t ticket = 0;
  std::vector<GenResult> results;

  while (!state.budget_exhausted()) {
    // Dispatch the full chunk set within the remaining budget (deferred
    // candidates are already charged, so headroom needs no inflight term).
    std::int64_t headroom = params_.max_evaluations - state.evaluations();
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
          !leading && schedule.chance(options_.defer_probability);
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
  scope.finish(state.iterations());
  return collect_result(state, "async", timer.elapsed_seconds());
}

}  // namespace tsmo
