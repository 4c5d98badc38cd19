#include "parallel/hybrid_tsmo.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "core/sequential_tsmo.hpp"
#include "parallel/channel.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/worker_team.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace tsmo {

MultisearchResult HybridTsmo::run() const {
  if (options_.deterministic) return run_deterministic();
  const int k = std::max(2, islands_);
  const int procs = std::max(2, procs_per_island_);
  const auto n = static_cast<std::size_t>(k);
  RunScope scope("run.hybrid", params_, ctx_, k, k * (procs - 1));
  // Island threads re-establish the ambient context captured here, so
  // their iteration and worker spans parent under the run.hybrid span.
  const telemetry::TraceContext island_ctx = telemetry::current_trace();
  Timer timer;

  std::vector<std::unique_ptr<Channel<std::shared_ptr<const Solution>>>>
      mailboxes;
  mailboxes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mailboxes.push_back(
        std::make_unique<Channel<std::shared_ptr<const Solution>>>());
    TSMO_TELEMETRY_ONLY(if (telemetry::enabled()) {
      mailboxes.back()->enable_telemetry("island" + std::to_string(i));
    })
  }
  std::vector<RunResult> per_island(n);
  std::atomic<std::int64_t> messages_sent{0};
  std::atomic<std::int64_t> messages_accepted{0};
  // candidate_k is never perturbed, so every island shares one list.
  const auto shared_cands = make_candidate_list(*inst_, params_.candidate_k);

  auto island = [&](int id) {
    telemetry::TraceScope island_scope(island_ctx);
    Timer local_timer;
    TSMO_TELEMETRY_ONLY(if (telemetry::enabled()) {
      telemetry::Registry::instance().set_thread_label(
          "hybrid island " + std::to_string(id));
    })
    Rng rng(params_.seed + static_cast<std::uint64_t>(id) * 0x9d2c5680ULL);
    TsmoParams p = id == 0 ? params_ : params_.perturbed(rng);
    p.max_evaluations = params_.max_evaluations;
    p.seed = rng.next();

    SearchState state(*inst_, p, Rng(p.seed), shared_cands);
    state.set_trace_id(id);
    WorkerTeam team(*inst_, procs - 1, p.seed, shared_cands);
    if (ctx_.recorder) {
      team.enable_heartbeats(*ctx_.recorder,
                             "island " + std::to_string(id) + " worker");
    }
    scope.attach(state, id);
    scope.restart_on_stall(state, id);
    state.initialize();

    std::vector<int> comm;
    for (int j = 0; j < k; ++j) {
      if (j != id) comm.push_back(j);
    }
    for (std::size_t j = comm.size(); j > 1; --j) {
      std::swap(comm[j - 1], comm[rng.below(j)]);
    }

    // Asynchronous master loop (as in AsyncTsmo) + island exchange.
    const int chunk = std::max(1, p.neighborhood_size / procs);
    std::vector<bool> busy(static_cast<std::size_t>(team.num_workers()),
                           false);
    std::int64_t inflight = 0;
    std::vector<Candidate> pool;
    std::uint64_t ticket = 0;
    bool initial_phase = true;

    auto drain = [&](std::optional<GenResult> result) {
      while (result) {
        busy[static_cast<std::size_t>(result->worker_id)] = false;
        inflight -= chunk;
        state.charge_evaluations(
            static_cast<std::int64_t>(result->candidates.size()));
        pool.insert(pool.end(),
                    std::make_move_iterator(result->candidates.begin()),
                    std::make_move_iterator(result->candidates.end()));
        result = team.try_collect();
      }
    };

    while (!state.budget_exhausted()) {
      TSMO_SPAN("hybrid.iteration");
      TSMO_PROFILE_FRAME("hybrid.iteration");
      while (auto incoming = mailboxes[static_cast<std::size_t>(id)]
                                 ->try_pop()) {
        TSMO_COUNT("hybrid.messages_received");
        if (state.receive(std::move(*incoming))) {
          TSMO_COUNT("hybrid.messages_accepted");
          messages_accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }

      for (int w = 0; w < team.num_workers(); ++w) {
        const std::int64_t headroom =
            p.max_evaluations - state.evaluations() - inflight;
        if (busy[static_cast<std::size_t>(w)] || headroom < chunk) {
          continue;
        }
        team.submit(GenRequest{state.current(), chunk, ++ticket});
        busy[static_cast<std::size_t>(w)] = true;
        inflight += chunk;
        TSMO_COUNT("hybrid.chunks_dispatched");
      }
      const std::int64_t remaining =
          p.max_evaluations - state.evaluations();
      const int master_chunk =
          static_cast<int>(std::min<std::int64_t>(chunk, remaining));
      if (master_chunk > 0) {
        auto mine = state.generate_candidates(master_chunk);
        pool.insert(pool.end(), std::make_move_iterator(mine.begin()),
                    std::make_move_iterator(mine.end()));
      }
      drain(team.try_collect());

      {
        TSMO_SPAN_TIMED("hybrid.wait", "hybrid.wait_ns");
        TSMO_PROFILE_FRAME("channel.wait");
        const Timer wait_timer;
        for (;;) {
          const bool c1 = std::any_of(busy.begin(), busy.end(),
                                      [](bool b) { return !b; });
          const bool c2 = std::any_of(
              pool.begin(), pool.end(), [&](const Candidate& c) {
                return dominates(c.obj, state.current()->objectives());
              });
          const bool c3 = wait_timer.elapsed_ms() >= 2.0;
          if (c1 || c2 || c3 || state.budget_exhausted()) break;
          drain(team.collect_for(std::chrono::microseconds(200)));
        }
      }

      if (pool.empty() && state.budget_exhausted()) break;
      const auto outcome = state.step_with_candidates(pool);
      pool.clear();

      if (initial_phase &&
          state.iterations_since_improvement() >= p.restart_after) {
        initial_phase = false;
      }
      if (!initial_phase && outcome.archive_improved && !comm.empty()) {
        const int target = comm.front();
        std::rotate(comm.begin(), comm.begin() + 1, comm.end());
        state.trace().record_event(
            RunTrace::kTagSend, static_cast<std::uint64_t>(target),
            hash_objectives(state.current()->objectives()));
        mailboxes[static_cast<std::size_t>(target)]->push(state.current());
        TSMO_COUNT("hybrid.messages_sent");
        messages_sent.fetch_add(1, std::memory_order_relaxed);
      }
    }
    per_island[static_cast<std::size_t>(id)] = collect_result(
        state, "hybrid[" + std::to_string(id) + "]",
        local_timer.elapsed_seconds());
    // Sign out before `state` dies; a concurrent watchdog verdict then
    // finds no state instead of a dangling pointer.
    scope.forget_stall(id);
  };

  {
    std::vector<std::jthread> threads;
    threads.reserve(n);
    for (int id = 0; id < k; ++id) threads.emplace_back(island, id);
  }  // join

  MultisearchResult result;
  result.per_searcher = std::move(per_island);
  result.merged = merge_results(result.per_searcher, "hybrid");
  result.merged.wall_seconds = timer.elapsed_seconds();
  result.merged.refresh_throughput();
  result.messages_sent = messages_sent.load();
  result.messages_accepted = messages_accepted.load();
  scope.finish(result.merged.iterations);
  return result;
}

MultisearchResult HybridTsmo::run_deterministic() const {
  const int k = std::max(2, islands_);
  const int procs = std::max(2, procs_per_island_);
  const auto n = static_cast<std::size_t>(k);
  const int exec = options_.exec_threads > 0 ? options_.exec_threads : k;
  RunScope scope("run.hybrid", params_, ctx_, k, 0);
  // Pool threads re-establish this ambient context per round step.
  const telemetry::TraceContext island_ctx = telemetry::current_trace();
  Timer timer;

  // One lock-step island per slot; each round an island performs one
  // deterministic-async iteration (seeded chunk schedule + straggler
  // model, chunks evaluated inline) and exchanges solutions afterwards.
  struct Island {
    std::unique_ptr<SearchState> state;
    std::unique_ptr<MoveEngine> engine;  // chunk generation, worker-style
    std::unique_ptr<NeighborhoodGenerator> generator;
    TsmoParams p;
    Rng schedule{0};
    std::vector<Candidate> deferred;
    std::vector<int> comm;
    std::vector<std::shared_ptr<const Solution>> inbox;
    std::vector<std::pair<int, std::shared_ptr<const Solution>>> outbox;
    Timer local_timer;
    bool initial_phase = true;
    bool done = false;
    std::int64_t sent = 0;
    std::int64_t accepted = 0;
    RunResult result;
  };
  std::vector<Island> islands(n);
  const auto shared_cands = make_candidate_list(*inst_, params_.candidate_k);
  for (int id = 0; id < k; ++id) {
    Island& is = islands[static_cast<std::size_t>(id)];
    Rng rng(params_.seed + static_cast<std::uint64_t>(id) * 0x9d2c5680ULL);
    is.p = id == 0 ? params_ : params_.perturbed(rng);
    is.p.max_evaluations = params_.max_evaluations;
    is.p.seed = rng.next();
    is.state = std::make_unique<SearchState>(*inst_, is.p, Rng(is.p.seed),
                                             shared_cands);
    is.state->set_trace_id(id);
    scope.attach(*is.state, id);
    is.engine = std::make_unique<MoveEngine>(*inst_);
    if (shared_cands) is.engine->set_candidate_list(shared_cands.get());
    is.generator = std::make_unique<NeighborhoodGenerator>(*is.engine);
    is.schedule = Rng(is.p.seed ^ 0xa57c5eedULL);
    for (int j = 0; j < k; ++j) {
      if (j != id) is.comm.push_back(j);
    }
    for (std::size_t j = is.comm.size(); j > 1; --j) {
      std::swap(is.comm[j - 1], is.comm[rng.below(j)]);
    }
  }

  ThreadPool pool(static_cast<unsigned>(std::max(1, exec)));
  {
    std::vector<std::future<void>> init;
    init.reserve(n);
    for (Island& is : islands) {
      init.push_back(pool.submit([&is] { is.state->initialize(); }));
    }
    for (auto& f : init) f.get();
  }

  auto step_one = [&](int id) {
    telemetry::TraceScope island_scope(island_ctx);
    Island& is = islands[static_cast<std::size_t>(id)];
    TSMO_SPAN("hybrid.iteration");
    TSMO_PROFILE_FRAME("hybrid.iteration");
    for (std::shared_ptr<const Solution>& sol : is.inbox) {
      TSMO_COUNT("hybrid.messages_received");
      if (is.state->receive(std::move(sol))) {
        TSMO_COUNT("hybrid.messages_accepted");
        ++is.accepted;
      }
    }
    is.inbox.clear();

    if (is.state->budget_exhausted()) {
      is.done = true;
      is.result =
          collect_result(*is.state, "hybrid[" + std::to_string(id) + "]",
                         is.local_timer.elapsed_seconds());
      return;
    }
    // Deterministic async iteration: seeded chunk schedule within the
    // remaining budget, straggler chunks one iteration late.
    const int chunk = std::max(1, is.p.neighborhood_size / procs);
    std::int64_t total = std::min<std::int64_t>(
        static_cast<std::int64_t>(procs) * chunk,
        is.p.max_evaluations - is.state->evaluations());
    std::vector<Candidate> pool_candidates = std::move(is.deferred);
    is.deferred.clear();
    bool leading = true;
    while (total > 0) {
      const int count = static_cast<int>(std::min<std::int64_t>(chunk, total));
      total -= count;
      Rng task_rng(is.schedule.next());
      std::vector<Candidate> cands = make_candidates(
          *is.generator, is.state->current(), count, task_rng);
      is.state->charge_evaluations(static_cast<std::int64_t>(cands.size()));
      TSMO_COUNT("hybrid.chunks_dispatched");
      const bool defer =
          !leading && is.schedule.chance(options_.defer_probability);
      is.state->trace().record_event(RunTrace::kTagDefer,
                                     static_cast<std::uint64_t>(count),
                                     defer ? 1 : 0);
      if (defer) TSMO_COUNT("hybrid.chunks_deferred");
      auto& sink = defer ? is.deferred : pool_candidates;
      sink.insert(sink.end(), std::make_move_iterator(cands.begin()),
                  std::make_move_iterator(cands.end()));
      leading = false;
    }
    const auto outcome = is.state->step_with_candidates(pool_candidates);

    if (is.initial_phase &&
        is.state->iterations_since_improvement() >= is.p.restart_after) {
      is.initial_phase = false;
    }
    if (!is.initial_phase && outcome.archive_improved && !is.comm.empty()) {
      const int target = is.comm.front();
      std::rotate(is.comm.begin(), is.comm.begin() + 1, is.comm.end());
      is.state->trace().record_event(
          RunTrace::kTagSend, static_cast<std::uint64_t>(target),
          hash_objectives(is.state->current()->objectives()));
      is.outbox.emplace_back(target, is.state->current());
      TSMO_COUNT("hybrid.messages_sent");
      ++is.sent;
    }
  };

  for (;;) {
    std::vector<int> alive;
    for (int id = 0; id < k; ++id) {
      if (!islands[static_cast<std::size_t>(id)].done) alive.push_back(id);
    }
    if (alive.empty()) break;
    std::vector<std::future<void>> round;
    round.reserve(alive.size());
    for (int id : alive) {
      round.push_back(pool.submit([&step_one, id] { step_one(id); }));
    }
    for (auto& f : round) f.get();
    for (Island& is : islands) {
      for (auto& [target, sol] : is.outbox) {
        Island& t = islands[static_cast<std::size_t>(target)];
        if (!t.done) t.inbox.push_back(std::move(sol));
      }
      is.outbox.clear();
    }
  }

  MultisearchResult result;
  result.per_searcher.reserve(n);
  for (Island& is : islands) {
    result.messages_sent += is.sent;
    result.messages_accepted += is.accepted;
    result.per_searcher.push_back(std::move(is.result));
  }
  result.merged = merge_results(result.per_searcher, "hybrid");
  result.merged.wall_seconds = timer.elapsed_seconds();
  result.merged.refresh_throughput();
  scope.finish(result.merged.iterations);
  return result;
}

}  // namespace tsmo
