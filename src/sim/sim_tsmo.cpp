#include "sim/sim_tsmo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "core/sequential_tsmo.hpp"
#include "parallel/collaboration.hpp"
#include "sim/des.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One simulated generation worker: its own engine and RNG stream, an
/// absolute completion time, and the (already computed) result that
/// becomes visible to the master at that time.
class SimWorker {
 public:
  SimWorker(const Instance& inst, int id, Rng rng,
            std::shared_ptr<const CandidateList> cands = nullptr)
      : engine_(std::make_unique<MoveEngine>(inst)),
        cands_(std::move(cands)),
        rng_(rng),
        id_(id) {
    if (cands_) engine_->set_candidate_list(cands_.get());
  }

  bool busy() const noexcept { return busy_; }
  double done_time() const noexcept { return done_time_; }

  /// Dispatches a chunk at virtual time `start`; the candidates are
  /// computed now (against the base as of dispatch) but hidden until
  /// done_time().
  void dispatch(std::shared_ptr<const Solution> base, int count,
                double start, const CostModel& cost, Rng& noise_rng) {
    NeighborhoodGenerator generator(*engine_);
    result_ = make_candidates(generator, std::move(base), count, rng_);
    for (Candidate& c : result_) c.origin = static_cast<std::int16_t>(id_);
    const double work = static_cast<double>(result_.size()) * cost.eval_us *
                        cost.straggler_noise(noise_rng);
    done_time_ = start + cost.msg_us + work;
    busy_us_ += cost.msg_us + work;
    busy_ = true;
  }

  /// Collects the finished result (caller must check done_time <= now).
  std::vector<Candidate> collect() {
    busy_ = false;
    return std::move(result_);
  }

  /// Virtual µs this worker spent receiving + generating so far.
  double busy_us() const noexcept { return busy_us_; }

 private:
  std::unique_ptr<MoveEngine> engine_;
  std::shared_ptr<const CandidateList> cands_;
  Rng rng_;
  std::vector<Candidate> result_;
  double done_time_ = kInf;
  double busy_us_ = 0.0;
  bool busy_ = false;
  int id_ = -1;
};

/// Exports the virtual utilization of simulated workers as the same
/// `worker.<id>.busy_ns` / `.idle_ns` gauges the real WorkerTeam maintains,
/// so table benches (which run on the DES substrate) report per-worker
/// utilization too.  Virtual µs are scaled to ns; idle = total − busy.
void export_sim_worker_gauges(const std::vector<SimWorker>& workers,
                              double total_us) {
#if TSMO_TELEMETRY_ENABLED
  if (!telemetry::enabled()) return;
  auto& reg = telemetry::Registry::instance();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const double busy_us = workers[i].busy_us();
    const double idle_us = std::max(0.0, total_us - busy_us);
    const std::string prefix = "worker." + std::to_string(i);
    reg.gauge_add(reg.gauge(prefix + ".busy_ns"),
                  static_cast<std::int64_t>(busy_us * 1e3));
    reg.gauge_add(reg.gauge(prefix + ".idle_ns"),
                  static_cast<std::int64_t>(idle_us * 1e3));
  }
#else
  (void)workers;
  (void)total_us;
#endif
}

double selection_cost(std::size_t pool_size, const CostModel& cost) {
  return static_cast<double>(pool_size) * cost.sel_per_cand_us +
         cost.iter_overhead_us;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sequential (virtual Ts baseline)
// ---------------------------------------------------------------------------

RunResult run_sim_sequential(const Instance& inst, const TsmoParams& params,
                             const CostModel& cost, const RunContext& ctx) {
  RunScope scope("run.sim-sequential", params, ctx, 1, 0);
  SearchState state(inst, params, Rng(params.seed));
  scope.attach(state);
  state.initialize();
  double t = cost.eval_us;  // initial construction
  while (!state.budget_exhausted()) {
    const std::int64_t remaining =
        params.max_evaluations - state.evaluations();
    const int want = static_cast<int>(std::min<std::int64_t>(
        params.neighborhood_size, remaining));
    if (want <= 0) break;
    const auto candidates = state.generate_candidates(want);
    t += static_cast<double>(candidates.size()) * cost.eval_us;
    t += selection_cost(candidates.size(), cost);
    state.step_with_candidates(candidates);
  }
  scope.finish(state.iterations());
  RunResult r = collect_result(state, "sim-sequential", 0.0);
  r.sim_seconds = t * 1e-6;
  r.refresh_throughput();
  return r;
}

// ---------------------------------------------------------------------------
// Synchronous master-worker
// ---------------------------------------------------------------------------

RunResult run_sim_sync(const Instance& inst, const TsmoParams& params,
                       int processors, const CostModel& cost,
                       const RunContext& ctx) {
  const int procs = std::max(2, processors);
  RunScope scope("run.sim-sync", params, ctx, 1, procs - 1);
  const auto cands = make_candidate_list(inst, params.candidate_k);
  SearchState state(inst, params, Rng(params.seed), cands);
  scope.attach(state);
  state.initialize();
  Rng noise(params.seed ^ 0xd015eULL);

  Rng stream_seed(params.seed ^ 0x5eedF00dULL);
  std::vector<SimWorker> workers;
  workers.reserve(static_cast<std::size_t>(procs - 1));
  for (int w = 0; w < procs - 1; ++w) {
    workers.emplace_back(inst, w, stream_seed.split(), cands);
  }

  double t = cost.eval_us;  // initial construction
  while (!state.budget_exhausted()) {
    const std::int64_t remaining =
        params.max_evaluations - state.evaluations();
    const int want = static_cast<int>(std::min<std::int64_t>(
        params.neighborhood_size, remaining));
    if (want <= 0) break;
    const int chunk = want / procs;

    // Serial dispatch at the master: one solution transfer per worker.
    double dispatch_end = t;
    int dispatched = 0;
    if (chunk > 0) {
      for (SimWorker& w : workers) {
        dispatch_end += cost.msg_us + cost.transfer_solution_us;
        w.dispatch(state.current(), chunk, dispatch_end, cost, noise);
        ++dispatched;
      }
      TSMO_COUNT_N("sync.chunks_dispatched",
                   static_cast<std::uint64_t>(dispatched));
    }
    // Master's own share runs after dispatching.
    const int master_chunk = want - dispatched * chunk;
    std::vector<Candidate> pool = state.generate_candidates(master_chunk);
    double master_done =
        dispatch_end + static_cast<double>(pool.size()) * cost.eval_us;

    // Barrier: the iteration continues after the slowest participant,
    // then the master deserializes every returned chunk.
    double barrier = master_done;
    for (SimWorker& w : workers) {
      if (!w.busy()) continue;
      barrier = std::max(barrier, w.done_time());
    }
    for (SimWorker& w : workers) {
      if (!w.busy()) continue;
      auto part = w.collect();
      barrier += cost.msg_us + static_cast<double>(part.size()) *
                                   cost.transfer_per_cand_us;
      state.charge_evaluations(static_cast<std::int64_t>(part.size()));
      pool.insert(pool.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
    }
    t = barrier + selection_cost(pool.size(), cost);
    state.step_with_candidates(pool);
  }
  export_sim_worker_gauges(workers, t);
  scope.finish(state.iterations());
  RunResult r = collect_result(state, "sim-sync", 0.0);
  r.sim_seconds = t * 1e-6;
  r.refresh_throughput();
  return r;
}

// ---------------------------------------------------------------------------
// Asynchronous master-worker — reusable core (also drives the hybrid)
// ---------------------------------------------------------------------------

namespace {

class AsyncSimCore {
 public:
  /// Attaches the master to `scope` under `searcher` before initializing;
  /// the master and its workers share the run's candidate list `cands`.
  AsyncSimCore(const Instance& inst, const TsmoParams& params,
               int processors, const CostModel& cost,
               SimAsyncOptions options, const RunScope& scope,
               std::shared_ptr<const CandidateList> cands, int searcher = 0)
      : params_(params),
        cost_(cost),
        options_(std::move(options)),
        cands_(std::move(cands)),
        state_(inst, params, Rng(params.seed), cands_),
        noise_(params.seed ^ 0xa57cULL) {
    const int procs = std::max(2, processors);
    chunk_ = std::max(1, params.neighborhood_size / procs);
    wait_too_long_us_ = options.wait_too_long_us > 0.0
                            ? options.wait_too_long_us
                            : 0.5 * static_cast<double>(chunk_) *
                                  cost.eval_us;
    Rng stream_seed(params.seed ^ 0x5eedF00dULL);
    workers_.reserve(static_cast<std::size_t>(procs - 1));
    for (int w = 0; w < procs - 1; ++w) {
      workers_.emplace_back(inst, w, stream_seed.split(), cands_);
    }
    scope.attach(state_, searcher);
    state_.initialize();
  }

  SearchState& state() noexcept { return state_; }
  bool done() const noexcept { return state_.budget_exhausted(); }

  /// Publishes per-worker virtual utilization gauges up to time `total_us`.
  void export_worker_gauges(double total_us) const {
    export_sim_worker_gauges(workers_, total_us);
  }

  struct IterResult {
    double end_time = 0.0;
    bool archive_improved = false;
    bool progressed = false;  ///< false when the budget ran out instead
  };

  /// One master macro-iteration starting no earlier than `now`.
  IterResult iterate(double now) {
    IterResult out;
    if (done()) {
      out.end_time = now;
      return out;
    }
    double t = now;

    // Dispatch fresh chunks to idle workers while the budget leaves room.
    for (SimWorker& w : workers_) {
      const std::int64_t headroom = params_.max_evaluations -
                                    state_.evaluations() - inflight_;
      if (w.busy() || headroom < chunk_) continue;
      t += cost_.msg_us + cost_.transfer_solution_us;
      w.dispatch(state_.current(), chunk_, t, cost_, noise_);
      inflight_ += chunk_;
      TSMO_COUNT("async.chunks_dispatched");
    }

    // Master's own share.
    const std::int64_t remaining =
        params_.max_evaluations - state_.evaluations();
    const int master_chunk =
        static_cast<int>(std::min<std::int64_t>(chunk_, remaining));
    if (master_chunk > 0) {
      auto mine = state_.generate_candidates(master_chunk);
      t += static_cast<double>(mine.size()) * cost_.eval_us;
      pool_.insert(pool_.end(), std::make_move_iterator(mine.begin()),
                   std::make_move_iterator(mine.end()));
    }
    t = collect_arrived(t);

    // Algorithm 2 on the virtual clock.
    const double wait_start = t;
    for (;;) {
      const bool c1 = std::any_of(workers_.begin(), workers_.end(),
                                  [](const SimWorker& w) {
                                    return !w.busy();
                                  });
      const bool c2 = std::any_of(
          pool_.begin(), pool_.end(), [&](const Candidate& c) {
            return dominates(c.obj, state_.current()->objectives());
          });
      const bool c4 = state_.budget_exhausted();
      if ((options_.use_c1 && c1) || (options_.use_c2 && c2) || c4) break;
      const double next = next_completion();
      if (next == kInf) break;  // nothing in flight: waiting is pointless
      if (next > wait_start + wait_too_long_us_) {
        t = wait_start + wait_too_long_us_;  // c3
        break;
      }
      t = collect_arrived(next);
    }

    if (pool_.empty() && state_.budget_exhausted()) {
      out.end_time = t;
      return out;
    }
    t += selection_cost(pool_.size(), cost_);
    std::vector<Objectives> pool_objs;
    if (options_.observer) {
      pool_objs.reserve(pool_.size());
      for (const Candidate& c : pool_) pool_objs.push_back(c.obj);
    }
    const auto step = state_.step_with_candidates(pool_);
    pool_.clear();
    if (options_.observer) {
      SimAsyncIterationEvent ev;
      ev.iteration = state_.iterations();
      ev.virtual_time_s = t * 1e-6;
      ev.pool = std::move(pool_objs);
      ev.selected = state_.current()->objectives();
      ev.restarted = step.restarted;
      options_.observer(ev);
    }
    out.end_time = t;
    out.archive_improved = step.archive_improved;
    out.progressed = true;
    return out;
  }

 private:
  double next_completion() const {
    double next = kInf;
    for (const SimWorker& w : workers_) {
      if (w.busy()) next = std::min(next, w.done_time());
    }
    return next;
  }

  /// Moves every result with done_time <= t into the pool, charging the
  /// master's receive costs; returns the advanced master time.
  double collect_arrived(double t) {
    for (SimWorker& w : workers_) {
      if (!w.busy() || w.done_time() > t) continue;
      auto part = w.collect();
      inflight_ -= chunk_;
      t += cost_.msg_us + static_cast<double>(part.size()) *
                              cost_.transfer_per_cand_us;
      state_.charge_evaluations(static_cast<std::int64_t>(part.size()));
      pool_.insert(pool_.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
    }
    return t;
  }

  TsmoParams params_;
  CostModel cost_;
  SimAsyncOptions options_;
  std::shared_ptr<const CandidateList> cands_;  ///< init before state_
  SearchState state_;
  Rng noise_;
  std::vector<SimWorker> workers_;
  std::vector<Candidate> pool_;
  int chunk_ = 1;
  std::int64_t inflight_ = 0;
  double wait_too_long_us_ = 0.0;
};

}  // namespace

RunResult run_sim_async(const Instance& inst, const TsmoParams& params,
                        int processors, const CostModel& cost,
                        SimAsyncOptions options, const RunContext& ctx) {
  RunScope scope("run.sim-async", params, ctx, 1,
                 std::max(2, processors) - 1);
  AsyncSimCore core(inst, params, processors, cost, std::move(options),
                    scope, make_candidate_list(inst, params.candidate_k));
  double t = cost.eval_us;  // initial construction
  while (!core.done()) {
    const auto iter = core.iterate(t);
    t = iter.end_time;
    if (!iter.progressed) break;
  }
  core.export_worker_gauges(t);
  scope.finish(core.state().iterations());
  RunResult r = collect_result(core.state(), "sim-async", 0.0);
  r.sim_seconds = t * 1e-6;
  r.refresh_throughput();
  return r;
}

// ---------------------------------------------------------------------------
// Collaborative multisearch on the DES
// ---------------------------------------------------------------------------

MultisearchResult run_sim_multisearch(const Instance& inst,
                                      const TsmoParams& params,
                                      int processors,
                                      const CostModel& cost,
                                      const RunContext& ctx) {
  const int procs = std::max(2, processors);
  RunScope scope("run.sim-coll", params, ctx, procs, 0);
  const auto n = static_cast<std::size_t>(procs);
  const double contention = cost.contention_factor(procs);

  struct CollSearcher {
    Collaborator collab;
    std::unique_ptr<SearchState> state;
    std::vector<std::shared_ptr<const Solution>> mailbox;
    double finish_time = 0.0;
  };
  std::vector<CollSearcher> searchers;
  searchers.reserve(n);
  std::int64_t messages_sent = 0, messages_accepted = 0;
  // candidate_k is never perturbed, so every searcher shares one list.
  const auto cands = make_candidate_list(inst, params.candidate_k);

  for (int id = 0; id < procs; ++id) {
    Collaborator collab(params, id, procs, CollExchange::salt);
    auto state = std::make_unique<SearchState>(
        inst, collab.params(), Rng(collab.params().seed), cands);
    scope.attach(*state, id);
    state->initialize();
    searchers.push_back({std::move(collab), std::move(state), {}, 0.0});
  }

  Simulation sim;
  // One self-rescheduling "iteration" event per searcher.
  std::function<void(int)> do_step = [&](int id) {
    auto& s = searchers[static_cast<std::size_t>(id)];
    if (s.state->budget_exhausted()) {
      s.finish_time = sim.now();
      return;
    }
    double dt = 0.0;
    for (std::shared_ptr<const Solution>& incoming : s.mailbox) {
      dt += cost.msg_us;  // reception handling
      if (s.state->receive(std::move(incoming))) ++messages_accepted;
    }
    s.mailbox.clear();

    const TsmoParams& p = s.collab.params();
    const int want = static_cast<int>(std::min<std::int64_t>(
        p.neighborhood_size, p.max_evaluations - s.state->evaluations()));
    if (want <= 0) {
      s.finish_time = sim.now();
      return;
    }
    const auto candidates = s.state->generate_candidates(want);
    const auto outcome = s.state->step_with_candidates(candidates);
    dt += static_cast<double>(candidates.size()) * cost.eval_us;
    dt += selection_cost(candidates.size(), cost);
    dt *= contention;

    if (const auto target = s.collab.send_target(
            s.state->iterations_since_improvement(),
            outcome.archive_improved)) {
      dt += cost.msg_us + cost.transfer_solution_us;
      ++messages_sent;
      std::shared_ptr<const Solution> payload = s.state->current();
      sim.schedule_after(dt + cost.msg_us,
                         [&, to = *target, payload = std::move(payload)] {
                           searchers[static_cast<std::size_t>(to)]
                               .mailbox.push_back(payload);
                         });
    }
    sim.schedule_after(dt, [&, id] { do_step(id); });
  };

  const double init_cost = cost.eval_us * contention;
  for (int id = 0; id < procs; ++id) {
    sim.schedule_at(init_cost, [&, id] { do_step(id); });
  }
  sim.run();

  MultisearchResult result;
  result.per_searcher.reserve(n);
  for (auto& s : searchers) {
    RunResult r = collect_result(*s.state, "sim-coll", 0.0);
    r.sim_seconds = s.finish_time * 1e-6;
    r.refresh_throughput();
    result.per_searcher.push_back(std::move(r));
  }
  result.merged = merge_results(result.per_searcher, "sim-coll");
  scope.finish(result.merged.iterations);
  result.messages_sent = messages_sent;
  result.messages_accepted = messages_accepted;
  return result;
}

// ---------------------------------------------------------------------------
// Hybrid (future work §V): collaborating asynchronous islands
// ---------------------------------------------------------------------------

MultisearchResult run_sim_hybrid(const Instance& inst,
                                 const TsmoParams& params, int islands,
                                 int procs_per_island,
                                 const CostModel& cost,
                                 const RunContext& ctx) {
  const int k = std::max(2, islands);
  RunScope scope("run.sim-hybrid", params, ctx, k,
                 k * (std::max(2, procs_per_island) - 1));
  const auto n = static_cast<std::size_t>(k);
  const double contention = cost.contention_factor(k);

  struct Island {
    Collaborator collab;
    std::unique_ptr<AsyncSimCore> core;
    std::vector<std::shared_ptr<const Solution>> mailbox;
    double finish_time = 0.0;
  };
  std::vector<Island> nodes;
  nodes.reserve(n);
  std::int64_t messages_sent = 0, messages_accepted = 0;
  // candidate_k is never perturbed, so every island shares one list.
  const auto cands = make_candidate_list(inst, params.candidate_k);

  for (int id = 0; id < k; ++id) {
    Collaborator collab(params, id, k, HybridExchange::salt);
    auto core = std::make_unique<AsyncSimCore>(
        inst, collab.params(), procs_per_island, cost, SimAsyncOptions{},
        scope, cands, id);
    nodes.push_back({std::move(collab), std::move(core), {}, 0.0});
  }

  Simulation sim;
  std::function<void(int)> do_step = [&](int id) {
    auto& isl = nodes[static_cast<std::size_t>(id)];
    if (isl.core->done()) {
      isl.finish_time = sim.now();
      return;
    }
    double extra = 0.0;
    for (std::shared_ptr<const Solution>& incoming : isl.mailbox) {
      extra += cost.msg_us;
      if (isl.core->state().receive(std::move(incoming))) {
        ++messages_accepted;
      }
    }
    isl.mailbox.clear();

    const auto iter = isl.core->iterate(sim.now() + extra);
    if (!iter.progressed) {
      isl.finish_time = iter.end_time;
      return;
    }
    double end = sim.now() + (iter.end_time - sim.now()) * contention;

    if (const auto target = isl.collab.send_target(
            isl.core->state().iterations_since_improvement(),
            iter.archive_improved)) {
      end += cost.msg_us + cost.transfer_solution_us;
      ++messages_sent;
      std::shared_ptr<const Solution> payload = isl.core->state().current();
      sim.schedule_at(end + cost.msg_us,
                      [&, to = *target, payload = std::move(payload)] {
                        nodes[static_cast<std::size_t>(to)]
                            .mailbox.push_back(payload);
                      });
    }
    sim.schedule_at(end, [&, id] { do_step(id); });
  };

  for (int id = 0; id < k; ++id) {
    sim.schedule_at(cost.eval_us, [&, id] { do_step(id); });
  }
  sim.run();

  MultisearchResult result;
  result.per_searcher.reserve(n);
  for (auto& isl : nodes) {
    isl.core->export_worker_gauges(isl.finish_time);
    RunResult r = collect_result(isl.core->state(), "sim-hybrid", 0.0);
    r.sim_seconds = isl.finish_time * 1e-6;
    r.refresh_throughput();
    result.per_searcher.push_back(std::move(r));
  }
  result.merged = merge_results(result.per_searcher, "sim-hybrid");
  scope.finish(result.merged.iterations);
  result.messages_sent = messages_sent;
  result.messages_accepted = messages_accepted;
  return result;
}

}  // namespace tsmo
