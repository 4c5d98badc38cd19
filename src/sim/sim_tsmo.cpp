#include "sim/sim_tsmo.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "core/sequential_tsmo.hpp"
#include "parallel/async_tsmo.hpp"
#include "parallel/collaboration.hpp"
#include "parallel/sync_tsmo.hpp"
#include "sim/des.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double selection_cost(std::size_t pool_size, const CostModel& cost) {
  return static_cast<double>(pool_size) * cost.sel_per_cand_us +
         cost.iter_overhead_us;
}

/// The virtual-clock Team: `processors - 1` simulated workers, whose
/// chunks are computed at dispatch but arrive at their CostModel
/// completion times, and a master clock that the CostModel charges for
/// every dispatch, receive, own chunk and selection.  Straggler noise
/// draws from `noise_seed`; worker streams split from the run's seed.
/// Only sim-async sets `options`.
class SimTeam final : public Team {
 public:
  SimTeam(const Instance& inst, const TsmoParams& params, int processors,
          const CostModel& cost, std::uint64_t noise_seed,
          std::shared_ptr<const CandidateList> cands,
          SimAsyncOptions options = {})
      : cost_(cost),
        options_(std::move(options)),
        noise_(noise_seed),
        cands_(std::move(cands)) {
    const int chunk = std::max(1, params.neighborhood_size / processors);
    wait_too_long_us_ = options_.wait_too_long_us > 0.0
                            ? options_.wait_too_long_us
                            : 0.5 * static_cast<double>(chunk) * cost.eval_us;
    Rng stream_seed(params.seed ^ 0x5eedF00dULL);
    for (int w = 0; w < processors - 1; ++w) {
      workers_.push_back(
          {std::make_unique<MoveEngine>(inst), stream_seed.split(), {}});
      if (cands_) workers_.back().engine->set_candidate_list(cands_.get());
    }
  }

  /// The master's virtual time, µs.
  double now() const noexcept { return now_; }
  void start_at(double t) noexcept { now_ = t; }

  int num_workers() const noexcept override {
    return static_cast<int>(workers_.size());
  }

  /// Serial dispatch at the master: one solution transfer per chunk.  The
  /// worker computes its candidates now, against the base as of dispatch,
  /// but the master sees them only at the chunk's done time.
  void dispatch(int worker, std::shared_ptr<const Solution> base,
                int count) override {
    now_ += cost_.msg_us + cost_.transfer_solution_us;
    Worker& w = workers_[static_cast<std::size_t>(worker)];
    NeighborhoodGenerator generator(*w.engine);
    w.result = make_candidates(generator, std::move(base), count, w.rng);
    for (Candidate& c : w.result) c.origin = static_cast<std::int16_t>(worker);
    const double work = static_cast<double>(w.result.size()) * cost_.eval_us *
                        cost_.straggler_noise(noise_);
    w.done_time = now_ + cost_.msg_us + work;
    w.busy_us += cost_.msg_us + work;
    w.busy = true;
  }

  void master_generated(std::size_t count) override {
    now_ += static_cast<double>(count) * cost_.eval_us;
  }

  /// Takes every result with done_time <= now in worker order, charging
  /// the master's receive cost for each.
  void collect_arrived(const Take& take) override {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = workers_[i];
      if (!w.busy || w.done_time > now_) continue;
      w.busy = false;
      GenResult result{std::move(w.result), 0, static_cast<int>(i)};
      now_ += cost_.msg_us + static_cast<double>(result.candidates.size()) *
                                 cost_.transfer_per_cand_us;
      take(result);
    }
  }

  void wait(const std::function<bool()>& decided, const Take& take) override {
    const double wait_start = now_;
    while (!decided()) {
      double next = kInf;
      for (const Worker& w : workers_) {
        if (w.busy) next = std::min(next, w.done_time);
      }
      if (next == kInf) break;  // nothing in flight: waiting is pointless
      if (next > wait_start + wait_too_long_us_) {
        now_ = wait_start + wait_too_long_us_;  // c3
        break;
      }
      now_ = next;
      collect_arrived(take);
    }
  }

  /// The round continues after the slowest participant (straggler noise
  /// applies), then the master receives every returned chunk.
  void barrier(int /*chunks*/, const Take& take) override {
    for (const Worker& w : workers_) {
      if (w.busy) now_ = std::max(now_, w.done_time);
    }
    collect_arrived(take);
  }

  void selecting(const std::vector<Candidate>& pool) override {
    now_ += selection_cost(pool.size(), cost_);
    if (!options_.observer) return;
    pool_objs_.clear();
    for (const Candidate& c : pool) pool_objs_.push_back(c.obj);
  }

  bool use_c1() const noexcept override { return options_.use_c1; }
  bool use_c2() const noexcept override { return options_.use_c2; }

  /// Reports a finished master iteration to the observer, if any.
  void observe(const SearchState& state, const SearchState::StepOutcome& step) {
    if (!options_.observer) return;
    SimAsyncIterationEvent ev;
    ev.iteration = state.iterations();
    ev.virtual_time_s = now_ * 1e-6;
    ev.pool = std::move(pool_objs_);
    ev.selected = state.current()->objectives();
    ev.restarted = step.restarted;
    options_.observer(ev);
  }

  /// Exports the workers' virtual utilization as the same
  /// `worker.<id>.busy_ns` / `.idle_ns` gauges the real WorkerTeam
  /// maintains, so table benches (which run on the DES substrate) report
  /// per-worker utilization too.  Virtual µs are scaled to ns; idle =
  /// total − busy.
  void export_gauges([[maybe_unused]] double total_us) const {
#if TSMO_TELEMETRY_ENABLED
    if (!telemetry::enabled()) return;
    auto& reg = telemetry::Registry::instance();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const double busy_us = workers_[i].busy_us;
      const double idle_us = std::max(0.0, total_us - busy_us);
      const std::string prefix = "worker." + std::to_string(i);
      reg.gauge_add(reg.gauge(prefix + ".busy_ns"),
                    static_cast<std::int64_t>(busy_us * 1e3));
      reg.gauge_add(reg.gauge(prefix + ".idle_ns"),
                    static_cast<std::int64_t>(idle_us * 1e3));
    }
#endif
  }

 private:
  struct Worker {
    std::unique_ptr<MoveEngine> engine;
    Rng rng;
    std::vector<Candidate> result;  ///< hidden until done_time
    double done_time = kInf;
    double busy_us = 0.0;  ///< receiving + generating so far
    bool busy = false;
  };

  CostModel cost_;
  SimAsyncOptions options_;
  Rng noise_;
  std::shared_ptr<const CandidateList> cands_;  ///< outlives the engines
  std::vector<Worker> workers_;
  double now_ = 0.0;
  double wait_too_long_us_ = 0.0;
  std::vector<Objectives> pool_objs_;  ///< the observer's, per iteration
};

/// A simulated searcher's result, finished at virtual time `finish_us`.
RunResult sim_result(const SearchState& state, const char* engine,
                     double finish_us) {
  RunResult r = collect_result(state, engine, 0.0);
  r.sim_seconds = finish_us * 1e-6;
  r.refresh_throughput();
  return r;
}

/// The result of a collaborative run on the virtual clock; ends `scope`.
MultisearchResult merged_result(std::vector<RunResult> per_searcher,
                                const char* engine, std::int64_t sent,
                                std::int64_t accepted, RunScope& scope) {
  MultisearchResult result;
  result.per_searcher = std::move(per_searcher);
  result.merged = merge_results(result.per_searcher, engine);
  scope.finish(result.merged.iterations);
  result.messages_sent = sent;
  result.messages_accepted = accepted;
  return result;
}

/// SyncTsmo's rounds on the virtual clock until the budget is spent.
auto sync_rounds(int neighborhood, int procs) {
  return [=](SearchState& state, SimTeam& team) {
    while (!state.budget_exhausted() &&
           sync_round(state, neighborhood, procs, team)) {
    }
  };
}

/// A master-worker run on the virtual clock: the `span` ("run.<engine>")
/// scope, the candidate list, the master's state and a SimTeam of
/// `procs - 1` workers whose clock starts after the initial construction;
/// `search` runs the master on them.
RunResult run_on_virtual_clock(
    const char* span, const Instance& inst, const TsmoParams& params,
    int procs, const CostModel& cost, std::uint64_t noise_seed,
    SimAsyncOptions options, const RunContext& ctx,
    const std::function<void(SearchState&, SimTeam&)>& search) {
  RunScope scope(span, params, ctx, 1, procs - 1);
  const auto cands = make_candidate_list(inst, params.candidate_k);
  SearchState state(inst, params, Rng(params.seed), cands);
  SimTeam team(inst, params, procs, cost, noise_seed, cands,
               std::move(options));
  scope.attach(state);
  state.initialize();
  team.start_at(cost.eval_us);  // initial construction
  search(state, team);
  team.export_gauges(team.now());
  scope.finish(state.iterations());
  return sim_result(state, span + 4, team.now());  // the name after "run."
}

}  // namespace

// ---------------------------------------------------------------------------
// Sequential and master-worker: sync_round and AsyncMaster on a SimTeam
// ---------------------------------------------------------------------------

RunResult run_sim_sequential(const Instance& inst, const TsmoParams& params,
                             const CostModel& cost, const RunContext& ctx) {
  // The synchronous round without workers: the master generates and
  // prices the whole neighborhood itself.
  return run_on_virtual_clock("run.sim-sequential", inst, params, 1, cost, 0,
                              {}, ctx,
                              sync_rounds(params.neighborhood_size, 1));
}

RunResult run_sim_sync(const Instance& inst, const TsmoParams& params,
                       int processors, const CostModel& cost,
                       const RunContext& ctx) {
  const int procs = std::max(2, processors);
  return run_on_virtual_clock(
      "run.sim-sync", inst, params, procs, cost, params.seed ^ 0xd015eULL, {},
      ctx, sync_rounds(params.neighborhood_size, procs));
}

RunResult run_sim_async(const Instance& inst, const TsmoParams& params,
                        int processors, const CostModel& cost,
                        SimAsyncOptions options, const RunContext& ctx) {
  const int procs = std::max(2, processors);
  return run_on_virtual_clock(
      "run.sim-async", inst, params, procs, cost, params.seed ^ 0xa57cULL,
      std::move(options), ctx, [procs](SearchState& state, SimTeam& team) {
        AsyncMaster master(state, procs, team);
        while (!state.budget_exhausted()) {
          const auto step = master.iterate();
          if (!step) break;
          team.observe(state, *step);
        }
      });
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

  std::vector<RunResult> results;
  for (const auto& s : searchers) {
    results.push_back(sim_result(*s.state, "sim-coll", s.finish_time));
  }
  return merged_result(std::move(results), "sim-coll", messages_sent,
                       messages_accepted, scope);
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
  const int procs = std::max(2, procs_per_island);
  RunScope scope("run.sim-hybrid", params, ctx, k, k * (procs - 1));
  const auto n = static_cast<std::size_t>(k);
  const double contention = cost.contention_factor(k);

  // An island is AsyncMaster over its own SimTeam, like sim-async.
  struct Island {
    Island(const Instance& inst, const TsmoParams& base, int id, int k,
           int procs, const CostModel& cost,
           const std::shared_ptr<const CandidateList>& cands)
        : collab(base, id, k, HybridExchange::salt),
          state(inst, collab.params(), Rng(collab.params().seed), cands),
          team(inst, collab.params(), procs, cost,
               collab.params().seed ^ 0xa57cULL, cands),
          master(state, procs, team) {}
    Collaborator collab;
    SearchState state;
    SimTeam team;
    AsyncMaster master;
    std::vector<std::shared_ptr<const Solution>> mailbox;
    double finish_time = 0.0;
  };
  std::vector<std::unique_ptr<Island>> nodes;
  nodes.reserve(n);
  std::int64_t messages_sent = 0, messages_accepted = 0;
  // candidate_k is never perturbed, so every island shares one list.
  const auto cands = make_candidate_list(inst, params.candidate_k);

  for (int id = 0; id < k; ++id) {
    nodes.push_back(
        std::make_unique<Island>(inst, params, id, k, procs, cost, cands));
    scope.attach(nodes.back()->state, id);
    nodes.back()->state.initialize();
  }

  Simulation sim;
  std::function<void(int)> do_step = [&](int id) {
    Island& isl = *nodes[static_cast<std::size_t>(id)];
    if (isl.state.budget_exhausted()) {
      isl.finish_time = sim.now();
      return;
    }
    double extra = 0.0;
    for (std::shared_ptr<const Solution>& incoming : isl.mailbox) {
      extra += cost.msg_us;
      if (isl.state.receive(std::move(incoming))) ++messages_accepted;
    }
    isl.mailbox.clear();

    isl.team.start_at(sim.now() + extra);
    const auto step = isl.master.iterate();
    if (!step) {
      isl.finish_time = isl.team.now();
      return;
    }
    double end = sim.now() + (isl.team.now() - sim.now()) * contention;

    if (const auto target = isl.collab.send_target(
            isl.state.iterations_since_improvement(),
            step->archive_improved)) {
      end += cost.msg_us + cost.transfer_solution_us;
      ++messages_sent;
      std::shared_ptr<const Solution> payload = isl.state.current();
      sim.schedule_at(end + cost.msg_us,
                      [&, to = *target, payload = std::move(payload)] {
                        nodes[static_cast<std::size_t>(to)]
                            ->mailbox.push_back(payload);
                      });
    }
    sim.schedule_at(end, [&, id] { do_step(id); });
  };

  for (int id = 0; id < k; ++id) {
    sim.schedule_at(cost.eval_us, [&, id] { do_step(id); });
  }
  sim.run();

  std::vector<RunResult> results;
  for (const auto& isl : nodes) {
    isl->team.export_gauges(isl->finish_time);
    results.push_back(sim_result(isl->state, "sim-hybrid", isl->finish_time));
  }
  return merged_result(std::move(results), "sim-hybrid", messages_sent,
                       messages_accepted, scope);
}

}  // namespace tsmo
