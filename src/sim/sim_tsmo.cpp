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

/// A collaborating searcher on the DES, timed on its own SimTeam: a
/// sim-coll searcher's team has no workers and its iteration is
/// sim-sequential's round (one TSMO step); a sim-hybrid island's is one
/// AsyncMaster iteration over `procs - 1` workers.
class SimPeer final : public Peer {
 public:
  SimPeer(const Instance& inst, const TsmoParams& base, int id, int peers,
          std::uint64_t salt, int procs, const CostModel& cost,
          std::shared_ptr<const CandidateList> cands)
      : Peer(inst, base, id, peers, salt, cands),
        team(inst, collab.params(), procs, cost,
             collab.params().seed ^ 0xa57cULL, std::move(cands)) {
    if (procs > 1) master_.emplace(state, procs, team);
  }

  std::optional<SearchState::StepOutcome> iterate() override {
    if (master_) return master_->iterate();
    return sync_round(state, collab.params().neighborhood_size, 1, team);
  }

  /// One iteration that starts at DES time `now`, after `dt` µs of
  /// reception; adds the iteration's charges to `dt`.  An island's workers
  /// finish at DES times, so its team runs on the DES clock; a team
  /// without workers leaves nothing in flight and times the step from 0.
  std::optional<SearchState::StepOutcome> step(double now, double& dt) {
    const double origin = master_ ? now : 0.0;
    team.start_at(origin + dt);
    const auto outcome = iterate();
    dt = team.now() - origin;
    return outcome;
  }

  SimTeam team;

 private:
  std::optional<AsyncMaster> master_;
};

/// Collaboration (§III.E) on the DES: `peers` SimPeers of `procs`
/// processors each interleave on one virtual timeline, one event per
/// iteration.  A step's reception, evaluation and selection costs are
/// summed, then scaled by the memory contention of `peers` searchers; a
/// sent solution arrives one message latency after the send completes.
/// The first steps start after the initial construction; a searcher
/// finishes at the time of the step that finds its budget spent.
template <typename Exchange>
MultisearchResult run_des(const char* span, const Instance& inst,
                          const TsmoParams& params, int peers, int procs,
                          const CostModel& cost, const RunContext& ctx) {
  RunScope scope(span, params, ctx, peers, peers * (procs - 1));
  const char* engine = span + 4;  // the name after "run."
  const double contention = cost.contention_factor(peers);
  // candidate_k is never perturbed, so every searcher shares one list.
  const auto cands = make_candidate_list(inst, params.candidate_k);
  struct Slot {
    std::unique_ptr<SimPeer> peer;
    std::vector<std::shared_ptr<const Solution>> mailbox;
    double finish = 0.0;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(peers));
  for (int id = 0; id < peers; ++id) {
    Slot& s = slots[static_cast<std::size_t>(id)];
    s.peer = std::make_unique<SimPeer>(inst, params, id, peers,
                                       Exchange::salt, procs, cost, cands);
    scope.attach(s.peer->state, id);
    s.peer->state.initialize();
  }
  std::int64_t sent = 0, accepted = 0;

  Simulation sim;
  std::function<void(int)> step = [&](int id) {
    Slot& s = slots[static_cast<std::size_t>(id)];
    SimPeer& peer = *s.peer;
    double dt = 0.0;
    std::optional<SearchState::StepOutcome> outcome;
    if (!peer.state.budget_exhausted()) {
      for (std::shared_ptr<const Solution>& sol : s.mailbox) {
        dt += cost.msg_us;  // reception handling
        if (take_in<Exchange>(peer.state, std::move(sol))) ++accepted;
      }
      s.mailbox.clear();
      outcome = peer.step(sim.now(), dt);
    }
    if (!outcome) {
      s.finish = sim.now();
      return;
    }
    dt *= contention;
    if (const auto target =
            send_target<Exchange>(peer, outcome->archive_improved)) {
      dt += cost.msg_us + cost.transfer_solution_us;
      ++sent;
      sim.schedule_after(dt + cost.msg_us,
                         [&, to = *target, sol = peer.state.current()] {
                           slots[static_cast<std::size_t>(to)]
                               .mailbox.push_back(sol);
                         });
    }
    sim.schedule_after(dt, [&, id] { step(id); });
  };
  for (int id = 0; id < peers; ++id) {
    sim.schedule_at(cost.eval_us * contention, [&, id] { step(id); });
  }
  sim.run();

  std::vector<RunResult> results;
  for (const Slot& s : slots) {
    s.peer->team.export_gauges(s.finish);
    results.push_back(sim_result(s.peer->state, engine, s.finish));
  }
  return finish_run(std::move(results), engine, sent, accepted, 0.0, scope);
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

MultisearchResult run_sim_multisearch(const Instance& inst,
                                      const TsmoParams& params,
                                      int processors, const CostModel& cost,
                                      const RunContext& ctx) {
  return run_des<CollExchange>("run.sim-coll", inst, params,
                               std::max(2, processors), 1, cost, ctx);
}

MultisearchResult run_sim_hybrid(const Instance& inst,
                                 const TsmoParams& params, int islands,
                                 int procs_per_island, const CostModel& cost,
                                 const RunContext& ctx) {
  return run_des<HybridExchange>("run.sim-hybrid", inst, params,
                                 std::max(2, islands),
                                 std::max(2, procs_per_island), cost, ctx);
}

}  // namespace tsmo
