#include "parallel/async_tsmo.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/sequential_tsmo.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace tsmo {

namespace {

/// Decision function c3: how long the master keeps waiting for worker
/// results before it proceeds with the partial pool.
constexpr double kWaitTooLongMs = 2.0;

}  // namespace

AsyncMaster::AsyncMaster(const Instance& inst, SearchState& state,
                         int processors,
                         std::shared_ptr<const CandidateList> cands)
    : state_(&state),
      team_(inst, processors - 1, state.params().seed, std::move(cands)),
      chunk_(std::max(1, state.params().neighborhood_size / processors)),
      busy_(static_cast<std::size_t>(team_.num_workers()), false) {}

void AsyncMaster::drain(std::optional<GenResult> result) {
  while (result) {
    busy_[static_cast<std::size_t>(result->worker_id)] = false;
    inflight_ -= chunk_;
    state_->charge_evaluations(
        static_cast<std::int64_t>(result->candidates.size()));
    pool_.insert(pool_.end(),
                 std::make_move_iterator(result->candidates.begin()),
                 std::make_move_iterator(result->candidates.end()));
    result = team_.try_collect();
  }
}

std::optional<SearchState::StepOutcome> AsyncMaster::iterate() {
  SearchState& state = *state_;
  const std::int64_t budget = state.params().max_evaluations;
  // Dispatch fresh chunks (on the current solution) to idle workers, as
  // long as the budget leaves room for the in-flight work.
  for (int w = 0; w < team_.num_workers(); ++w) {
    const std::int64_t headroom = budget - state.evaluations() - inflight_;
    if (busy_[static_cast<std::size_t>(w)] || headroom < chunk_) continue;
    team_.submit(GenRequest{state.current(), chunk_, ++ticket_});
    busy_[static_cast<std::size_t>(w)] = true;
    inflight_ += chunk_;
    TSMO_COUNT("async.chunks_dispatched");
  }

  // Master's own share of the neighborhood.
  const int master_chunk = static_cast<int>(
      std::min<std::int64_t>(chunk_, budget - state.evaluations()));
  if (master_chunk > 0) {
    std::vector<Candidate> mine = state.generate_candidates(master_chunk);
    pool_.insert(pool_.end(), std::make_move_iterator(mine.begin()),
                 std::make_move_iterator(mine.end()));
  }
  drain(team_.try_collect());

  // --- Algorithm 2: decide whether to keep waiting. ---
  {
    TSMO_SPAN_TIMED("async.wait", "async.wait_ns");
    TSMO_PROFILE_FRAME("channel.wait");
    const Timer wait_timer;
    for (;;) {
      const bool c1 =
          std::any_of(busy_.begin(), busy_.end(), [](bool b) { return !b; });
      const bool c2 =
          std::any_of(pool_.begin(), pool_.end(), [&](const Candidate& c) {
            return dominates(c.obj, state.current()->objectives());
          });
      const bool c3 = wait_timer.elapsed_ms() >= kWaitTooLongMs;
      const bool c4 = state.budget_exhausted();
      if (c1 || c2 || c3 || c4) break;
      drain(team_.collect_for(std::chrono::microseconds(200)));
    }
  }

  if (pool_.empty() && state.budget_exhausted()) return std::nullopt;
  const SearchState::StepOutcome outcome = state.step_with_candidates(pool_);
  // The considered pool is consumed; results still in flight will join
  // the pool of the iteration in which they arrive.
  pool_.clear();
  return outcome;
}

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
  AsyncMaster master(*inst_, state, procs, cands);
  if (ctx_.recorder) {
    master.team().enable_heartbeats(*ctx_.recorder, "async worker");
  }
  scope.attach(state);
  scope.restart_on_stall(state);
  state.initialize();
  while (!state.budget_exhausted()) {
    if (!master.iterate()) break;
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
  scope.finish(state.iterations());
  return collect_result(state, "async", timer.elapsed_seconds());
}

}  // namespace tsmo
