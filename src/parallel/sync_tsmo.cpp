#include "parallel/sync_tsmo.hpp"

#include <algorithm>

#include "core/sequential_tsmo.hpp"
#include "parallel/worker_team.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace tsmo {

RunResult SyncTsmo::run() const {
  if (options_.deterministic) return run_deterministic();
  const int procs = std::max(2, processors_);
  RunScope scope("run.sync", params_, ctx_, 1, procs - 1);
  TSMO_TELEMETRY_ONLY(
      if (telemetry::enabled()) {
        telemetry::Registry::instance().set_thread_label("sync master");
      })
  Timer timer;
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  SearchState state(*inst_, params_, Rng(params_.seed), cands);
  WorkerTeam team(*inst_, procs - 1, params_.seed, cands);
  if (ctx_.recorder) team.enable_heartbeats(*ctx_.recorder, "sync worker");
  scope.attach(state);
  state.initialize();

  std::uint64_t ticket = 0;
  while (!state.budget_exhausted()) {
    TSMO_SPAN("sync.round");
    TSMO_PROFILE_FRAME("sync.round");
    const std::int64_t remaining =
        params_.max_evaluations - state.evaluations();
    const int want = static_cast<int>(std::min<std::int64_t>(
        params_.neighborhood_size, remaining));
    if (want <= 0) break;

    // Distribute the neighborhood among master + workers.
    const int worker_chunk = want / procs;
    int dispatched = 0;
    if (worker_chunk > 0) {
      for (int w = 0; w < team.num_workers(); ++w) {
        team.submit(GenRequest{state.current(), worker_chunk, ++ticket});
        ++dispatched;
      }
    }
    TSMO_COUNT_N("sync.chunks_dispatched", dispatched);
    const int master_chunk = want - dispatched * worker_chunk;
    std::vector<Candidate> candidates =
        state.generate_candidates(master_chunk);

    // Barrier: wait for every worker's part before selecting.
    {
      TSMO_SPAN_TIMED("sync.barrier", "sync.barrier_wait_ns");
      TSMO_PROFILE_FRAME("channel.wait");
      for (int w = 0; w < dispatched; ++w) {
        auto result = team.collect();
        if (!result) break;  // team shut down (cannot happen mid-run)
        state.charge_evaluations(
            static_cast<std::int64_t>(result->candidates.size()));
        candidates.insert(candidates.end(),
                          std::make_move_iterator(result->candidates.begin()),
                          std::make_move_iterator(result->candidates.end()));
      }
    }
    state.step_with_candidates(candidates);
  }
  scope.finish(state.iterations());
  return collect_result(state, "sync", timer.elapsed_seconds());
}

RunResult SyncTsmo::run_deterministic() const {
  const int procs = std::max(2, processors_);
  const int exec =
      options_.exec_threads > 0 ? options_.exec_threads : procs - 1;
  RunScope scope("run.sync", params_, ctx_, 1, exec);
  TSMO_TELEMETRY_ONLY(
      if (telemetry::enabled()) {
        telemetry::Registry::instance().set_thread_label("sync master");
      })
  Timer timer;
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  SearchState state(*inst_, params_, Rng(params_.seed), cands);
  WorkerTeam team(*inst_, exec, params_.seed, cands);
  if (ctx_.recorder) team.enable_heartbeats(*ctx_.recorder, "sync worker");
  scope.attach(state);
  state.initialize();
  // Chunk seeds come from a dedicated schedule stream, so the logical
  // candidate sequence depends only on (seed, procs) — not on exec width.
  Rng schedule(params_.seed ^ 0xdead5eedULL);

  std::uint64_t ticket = 0;
  std::vector<GenResult> results;
  while (!state.budget_exhausted()) {
    TSMO_SPAN("sync.round");
    TSMO_PROFILE_FRAME("sync.round");
    const std::int64_t remaining =
        params_.max_evaluations - state.evaluations();
    const int want = static_cast<int>(std::min<std::int64_t>(
        params_.neighborhood_size, remaining));
    if (want <= 0) break;

    // Fixed balanced `procs`-way partition of the neighborhood.
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

    // Barrier, as in the plain mode — but reassemble in ticket order so
    // the pool is independent of worker scheduling.
    results.clear();
    {
      TSMO_SPAN_TIMED("sync.barrier", "sync.barrier_wait_ns");
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
    std::vector<Candidate> candidates;
    candidates.reserve(static_cast<std::size_t>(want));
    for (GenResult& r : results) {
      state.charge_evaluations(static_cast<std::int64_t>(r.candidates.size()));
      candidates.insert(candidates.end(),
                        std::make_move_iterator(r.candidates.begin()),
                        std::make_move_iterator(r.candidates.end()));
    }
    state.step_with_candidates(candidates);
  }
  scope.finish(state.iterations());
  return collect_result(state, "sync", timer.elapsed_seconds());
}

}  // namespace tsmo
