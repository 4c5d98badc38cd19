#include "parallel/hybrid_tsmo.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "parallel/async_tsmo.hpp"
#include "parallel/collaboration.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace tsmo {

namespace {

/// A free-running island: an asynchronous master over its own workers.
class AsyncIsland final : public Peer {
 public:
  AsyncIsland(const Instance& inst, const TsmoParams& base, int id,
              int islands, int procs,
              std::shared_ptr<const CandidateList> cands)
      : Peer(inst, base, id, islands, HybridExchange::salt, cands),
        team(inst, procs - 1, state.params().seed, std::move(cands)),
        master_(state, procs, team) {}

  std::optional<SearchState::StepOutcome> iterate() override {
    return master_.iterate();
  }

  WorkerTeam team;

 private:
  AsyncMaster master_;
};

/// A lock-step island: one deterministic asynchronous iteration per round
/// — seeded chunk schedule within the remaining budget, straggler chunks
/// one iteration late — with the chunks generated inline on the island's
/// thread.
class InlineAsyncIsland final : public Peer {
 public:
  InlineAsyncIsland(const Instance& inst, const TsmoParams& base, int id,
                    int islands, int procs,
                    std::shared_ptr<const CandidateList> cands)
      : Peer(inst, base, id, islands, HybridExchange::salt, cands),
        engine_(inst),
        generator_(engine_),
        schedule_(collab.params().seed ^ 0xa57c5eedULL),
        procs_(procs) {
    if (cands) engine_.set_candidate_list(cands.get());
  }

  std::optional<SearchState::StepOutcome> iterate() override {
    const TsmoParams& p = collab.params();
    const int chunk = std::max(1, p.neighborhood_size / procs_);
    std::int64_t total =
        std::min<std::int64_t>(static_cast<std::int64_t>(procs_) * chunk,
                               p.max_evaluations - state.evaluations());
    std::vector<Candidate> pool = std::move(deferred_);
    deferred_.clear();
    bool leading = true;
    while (total > 0) {
      const int count = static_cast<int>(std::min<std::int64_t>(chunk, total));
      total -= count;
      Rng task_rng(schedule_.next());
      std::vector<Candidate> cands =
          make_candidates(generator_, state.current(), count, task_rng);
      state.charge_evaluations(static_cast<std::int64_t>(cands.size()));
      TSMO_COUNT("async.chunks_dispatched");
      const bool defer = !leading && schedule_.chance(kDeferProbability);
      state.trace().record_event(RunTrace::kTagDefer,
                                 static_cast<std::uint64_t>(count),
                                 defer ? 1 : 0);
      if (defer) TSMO_COUNT("async.chunks_deferred");
      auto& sink = defer ? deferred_ : pool;
      sink.insert(sink.end(), std::make_move_iterator(cands.begin()),
                  std::make_move_iterator(cands.end()));
      leading = false;
    }
    return state.step_with_candidates(pool);
  }

 private:
  MoveEngine engine_;  ///< chunk generation, worker-style
  NeighborhoodGenerator generator_;
  Rng schedule_;
  std::vector<Candidate> deferred_;
  int procs_;
};

}  // namespace

MultisearchResult HybridTsmo::run() const {
  const int k = std::max(2, islands_);
  const int procs = std::max(2, procs_per_island_);
  RunScope scope("run.hybrid", params_, ctx_, k,
                 options_.deterministic ? 0 : k * (procs - 1));
  const Timer timer;
  // candidate_k is never perturbed, so every island shares one list.
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  if (options_.deterministic) {
    // One thread per island unless exec_threads says otherwise.
    const int exec = options_.exec_threads > 0 ? options_.exec_threads : k;
    return run_lockstep<HybridExchange>(k, exec, timer, scope, [&](int id) {
      return std::make_unique<InlineAsyncIsland>(*inst_, params_, id, k,
                                                 procs, cands);
    });
  }
  return run_islands<HybridExchange>(k, timer, scope, [&](int id) {
    auto island = std::make_unique<AsyncIsland>(*inst_, params_, id, k,
                                                procs, cands);
    if (ctx_.recorder) {
      island->team.enable_heartbeats(
          *ctx_.recorder, "island " + std::to_string(id) + " worker");
    }
    scope.restart_on_stall(island->state, id);
    return island;
  });
}

}  // namespace tsmo
