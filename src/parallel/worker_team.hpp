#pragma once

// Persistent neighborhood-generation workers for the master-worker
// algorithms (§III.C, §III.D): each worker owns its MoveEngine (the engine
// has mutable scratch buffers and is not shareable), its generator, and an
// independent RNG stream.  The master hands out GenRequests; workers push
// back GenResults.  Bases travel as shared_ptr<const Solution>, which is
// safe to read concurrently.
//
// Team is what the masters — sync_round (§III.C), AsyncMaster (§III.D,
// Algorithm 2) and deterministic mode's StragglerMaster — see of their
// workers and of the clock they wait on.  WorkerTeam is the team on the
// wall clock; SeededTeam runs deterministic mode's chunks on a WorkerTeam's
// threads; the DES's team runs simulated workers on a virtual clock
// (src/sim).  MasterWorkerTsmo is the set-up SyncTsmo and AsyncTsmo share
// around their master.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/candidate.hpp"
#include "core/run_context.hpp"
#include "core/run_result.hpp"
#include "core/search_state.hpp"
#include "parallel/channel.hpp"
#include "parallel/options.hpp"
#include "util/telemetry.hpp"
#include "vrptw/candidate_list.hpp"
#include "vrptw/instance.hpp"

namespace tsmo {

class ConvergenceRecorder;

struct GenRequest {
  std::shared_ptr<const Solution> base;
  int count = 0;
  std::uint64_t ticket = 0;  ///< echoed back; lets the master age results
  /// Deterministic mode: when `seeded`, the worker draws from a fresh
  /// Rng(seed) instead of its persistent per-thread stream, making the
  /// result a pure function of (seed, base, count) — independent of which
  /// worker runs it and of how many workers exist.
  std::uint64_t seed = 0;
  bool seeded = false;
};

struct GenResult {
  std::vector<Candidate> candidates;
  std::uint64_t ticket = 0;
  int worker_id = -1;
};

class Team {
 public:
  /// Receives one finished chunk.
  using Take = std::function<void(GenResult&)>;

  Team() = default;
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;
  virtual ~Team() = default;

  virtual int num_workers() const noexcept = 0;
  /// Hands worker `worker` a chunk of `count` neighbors of `base`.
  virtual void dispatch(int worker, std::shared_ptr<const Solution> base,
                        int count) = 0;
  /// The master generated `count` candidates of its own share.
  virtual void master_generated(std::size_t /*count*/) {}
  /// Passes every chunk that has arrived to `take`, without waiting.
  virtual void collect_arrived(const Take& take) = 0;
  /// Algorithm 2's wait: passes arriving chunks to `take` until
  /// `decided()` holds or the master has waited too long (c3); the DES
  /// also stops when nothing is left in flight.
  virtual void wait(const std::function<bool()>& decided,
                    const Take& take) = 0;
  /// The synchronous barrier: passes all `chunks` outstanding chunks to
  /// `take`.
  virtual void barrier(int chunks, const Take& take) = 0;
  /// The master is about to select from `pool`.
  virtual void selecting(const std::vector<Candidate>& /*pool*/) {}
  /// Whether Algorithm 2 continues on c1 (an idle worker) and on c2 (a
  /// candidate dominating the current solution); only the DES's ablation
  /// switches one off.
  virtual bool use_c1() const noexcept { return true; }
  virtual bool use_c2() const noexcept { return true; }
};

class WorkerTeam final : public Team {
 public:
  /// Spawns `num_workers` threads; RNG streams are derived from `seed` by
  /// repeated jumps, so results are deterministic per (seed, num_workers)
  /// up to arrival order.  `cands` (optional) switches every worker's
  /// engine to candidate-list pruned sampling; the immutable list is
  /// shared read-only across the team and with the master's SearchState.
  WorkerTeam(const Instance& inst, int num_workers, std::uint64_t seed,
             std::shared_ptr<const CandidateList> cands = nullptr);

  /// Closes the request channel and joins the workers.
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  int num_workers() const noexcept override {
    return static_cast<int>(threads_.size());
  }

  /// Registers one heartbeat slot per worker ("<prefix> N") on the
  /// recorder's board; workers then beat after every finished chunk, with
  /// their chunk count as the progress gauge.  Call before the first
  /// submit(); the recorder must outlive the team.
  void enable_heartbeats(ConvergenceRecorder& recorder,
                         const std::string& prefix);

  /// Hands a generation request to the next free worker (requests are
  /// pulled from a shared channel, so any idle worker picks it up).
  void submit(GenRequest request) { requests_.push(std::move(request)); }

  /// Non-blocking collection of one finished result.
  std::optional<GenResult> try_collect() { return results_.try_pop(); }

  /// Blocks up to `timeout` for a result.
  template <typename Rep, typename Period>
  std::optional<GenResult> collect_for(
      std::chrono::duration<Rep, Period> timeout) {
    return results_.pop_for(timeout);
  }

  /// Blocks until a result arrives (only valid while requests are
  /// outstanding; otherwise it would block until destruction).
  std::optional<GenResult> collect() { return results_.pop(); }

  /// Any idle worker takes the chunk; results name the worker that ran it.
  void dispatch(int worker, std::shared_ptr<const Solution> base,
                int count) override;
  void collect_arrived(const Take& take) override;
  /// c3 fires after 2 ms; the wait polls in 200 µs slices.
  void wait(const std::function<bool()>& decided, const Take& take) override;
  void barrier(int chunks, const Take& take) override;

 private:
  void worker_loop(int id, Rng rng);

  const Instance* inst_;
  std::shared_ptr<const CandidateList> cands_;  ///< outlives the workers
  /// The spawning thread's ambient trace context, captured before the
  /// worker threads start so each worker_loop can re-establish it — worker
  /// spans then parent under the engine's run span (DESIGN.md §13).
  telemetry::TraceContext trace_ctx_;
  Channel<GenRequest> requests_;
  Channel<GenResult> results_;
  /// Heartbeat wiring (set once by enable_heartbeats before any request
  /// flows; workers only read it while processing a request).
  std::atomic<ConvergenceRecorder*> recorder_{nullptr};
  std::vector<int> heartbeat_slots_;
  std::vector<std::thread> threads_;
};

/// Deterministic mode's team (DESIGN.md §7): every chunk runs on one of
/// `threads`' workers from a fresh Rng seeded at dispatch from the
/// schedule stream, and the wait and the barrier both hand back every
/// chunk in flight in ticket order — so the pool depends neither on
/// arrival order nor on how many threads run it.  `workers` is the logical
/// team width sync_round splits the neighborhood for; any thread runs any
/// chunk.
class SeededTeam final : public Team {
 public:
  SeededTeam(WorkerTeam& threads, int workers, std::uint64_t schedule_seed)
      : threads_(&threads), workers_(workers), schedule_(schedule_seed) {}

  int num_workers() const noexcept override { return workers_; }
  void dispatch(int worker, std::shared_ptr<const Solution> base,
                int count) override;
  /// Nothing is handed back before the wait or the barrier.
  void collect_arrived(const Take& /*take*/) override {}
  /// Every chunk completes: the seeded straggler model, not arrival,
  /// decides which ones are late, so `decided` is not consulted.
  void wait(const std::function<bool()>& decided, const Take& take) override;
  void barrier(int chunks, const Take& take) override;

  /// The stream chunk seeds are drawn from; the straggler master draws its
  /// deferral chances from it too.
  Rng& schedule() noexcept { return schedule_; }
  /// The ticket of the last chunk dispatched (tickets count from 1).
  std::uint64_t last_ticket() const noexcept { return ticket_; }

 private:
  void hand_back(const Take& take);

  WorkerTeam* threads_;
  int workers_;
  Rng schedule_;
  std::uint64_t ticket_ = 0;
  int inflight_ = 0;
};

/// What SyncTsmo and AsyncTsmo share: their inputs and one set-up for
/// both modes of each.
class MasterWorkerTsmo {
 public:
  /// `processors` counts the master plus its workers (paper: 3, 6, 12).
  MasterWorkerTsmo(const Instance& inst, const TsmoParams& params,
                   int processors, ParallelOptions options = {},
                   RunContext ctx = {})
      : inst_(&inst),
        params_(params),
        procs_(std::max(2, processors)),
        options_(options),
        ctx_(ctx) {}

 protected:
  /// Sets up the `span` ("run.<engine>") scope, the candidate list, the
  /// master's state and a WorkerTeam of procs - 1 workers — deterministic
  /// mode's exec_threads instead, when set — with heartbeats on the
  /// recorder, then runs `search` on them.  With `stall_restart` the
  /// watchdog may restart the master (ctx.stall_restart).
  RunResult run_master(
      const char* span, bool stall_restart,
      const std::function<void(SearchState&, WorkerTeam&)>& search) const;

  const Instance* inst_;
  TsmoParams params_;
  int procs_;
  ParallelOptions options_;
  RunContext ctx_;
};

}  // namespace tsmo
