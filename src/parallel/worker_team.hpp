#pragma once

// Persistent neighborhood-generation workers for the master-worker
// algorithms (§III.C, §III.D): each worker owns its MoveEngine (the engine
// has mutable scratch buffers and is not shareable), its generator, and an
// independent RNG stream.  The master hands out GenRequests; workers push
// back GenResults.  Bases travel as shared_ptr<const Solution>, which is
// safe to read concurrently.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/candidate.hpp"
#include "parallel/channel.hpp"
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

class WorkerTeam {
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

  int num_workers() const noexcept {
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

}  // namespace tsmo
