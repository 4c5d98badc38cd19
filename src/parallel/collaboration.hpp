#pragma once

// Collaboration between searchers (§III.E), written once for every
// collaborative engine: coll and the §V hybrid, on threads (free-running
// or in lock-step rounds) and on the DES.
//
// Collaborator is the rule for one searcher.  Searcher 0 keeps the base
// parameters; every other one perturbs each parameter with N(0, p/4)
// noise and keeps the full evaluation budget.  Each keeps a private
// communication list, a seeded shuffle of the other searchers.  Its
// initial phase ends the first time it goes `restart_after` iterations
// without improving its archive; from then on every archive improvement
// sends the current solution to the head of the list, which then rotates.
//
// Peer is one searcher: its Collaborator, its SearchState and the search
// it runs between exchanges — one plain TSMO step for coll, one
// asynchronous master iteration (§III.D) for a hybrid island.  One driver
// per clock routes the solutions a set of peers send: run_lockstep and
// run_islands on threads, run_des (src/sim) on the virtual clock; all three
// exchange through take_in and send_target.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/run_context.hpp"
#include "core/search_state.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace tsmo {

class Collaborator {
 public:
  /// Searcher `id` of `searchers`, drawing from the stream
  /// `base.seed + id * salt`.
  Collaborator(const TsmoParams& base, int id, int searchers,
               std::uint64_t salt);

  /// The parameters this searcher searches with; params().seed seeds its
  /// SearchState.
  const TsmoParams& params() const noexcept { return params_; }

  /// Called after every step: the peer to send the current solution to,
  /// or nullopt.
  std::optional<int> send_target(int iterations_since_improvement,
                                 bool archive_improved);

 private:
  TsmoParams params_;
  std::vector<int> comm_;
  bool initial_phase_ = true;
};

/// What tells the two collaborative engines apart in the exchange: the salt
/// of their searchers' streams and their names.  The TSMO_* telemetry
/// macros cache one slot per call site, so run_lockstep and run_islands
/// are instantiated once per engine.
struct CollExchange {
  static constexpr std::uint64_t salt = 0x51ed2701ULL;
  static constexpr const char* name = "coll";
  static constexpr const char* iteration = "coll.iteration";
  static constexpr const char* received = "coll.messages_received";
  static constexpr const char* accepted = "coll.messages_accepted";
  static constexpr const char* sent = "coll.messages_sent";
  static constexpr const char* thread = "coll searcher ";
  static constexpr const char* mailbox = "mailbox";
};

struct HybridExchange {
  static constexpr std::uint64_t salt = 0x9d2c5680ULL;
  static constexpr const char* name = "hybrid";
  static constexpr const char* iteration = "hybrid.iteration";
  static constexpr const char* received = "hybrid.messages_received";
  static constexpr const char* accepted = "hybrid.messages_accepted";
  static constexpr const char* sent = "hybrid.messages_sent";
  static constexpr const char* thread = "hybrid island ";
  static constexpr const char* mailbox = "island";
};

class Peer {
 public:
  /// Searcher `id` of `peers`; its state shares the run's candidate list
  /// and carries `id` as its trace id.
  Peer(const Instance& inst, const TsmoParams& base, int id, int peers,
       std::uint64_t salt, std::shared_ptr<const CandidateList> cands);
  virtual ~Peer() = default;
  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  /// One iteration of this searcher's own search, or nullopt when it has
  /// finished without a step.  The base takes one TSMO step (Algorithm 1)
  /// over a full neighborhood.
  virtual std::optional<SearchState::StepOutcome> iterate();

  Collaborator collab;
  SearchState state;
};

/// Offers a peer's solution to `state`'s M_nondom; true when stored.
template <typename Exchange>
bool take_in(SearchState& state, std::shared_ptr<const Solution> sol) {
  TSMO_COUNT(Exchange::received);
  if (!state.receive(std::move(sol))) return false;
  TSMO_COUNT(Exchange::accepted);
  return true;
}

/// After an iteration: the peer that receives `peer`'s current solution,
/// with the send traced and counted, or nullopt.
template <typename Exchange>
std::optional<int> send_target(Peer& peer, bool archive_improved) {
  SearchState& state = peer.state;
  const std::optional<int> target = peer.collab.send_target(
      state.iterations_since_improvement(), archive_improved);
  if (target) {
    state.trace().record_event(RunTrace::kTagSend,
                               static_cast<std::uint64_t>(*target),
                               hash_objectives(state.current()->objectives()));
    TSMO_COUNT(Exchange::sent);
  }
  return target;
}

/// The merged result of a collaborative run, which took `wall_seconds`
/// (0 on the DES); ends `scope`.
MultisearchResult finish_run(std::vector<RunResult> per_searcher,
                             const char* engine, std::int64_t sent,
                             std::int64_t accepted, double wall_seconds,
                             RunScope& scope);

/// Builds peer `id`; run_lockstep and run_islands attach it to the run's
/// scope and initialize it.
using MakePeer = std::function<std::unique_ptr<Peer>(int id)>;

/// Runs `peers` searchers in lock-step rounds (DESIGN.md §7) on
/// `exec_threads` threads.  Each round every live peer takes in the
/// solutions sent to it in the previous round, in sender-id order, and
/// iterates once; a finished receiver drops its messages.  Each round
/// touches only per-peer state, so the result is the same for any
/// `exec_threads`.  The merged wall time is `timer`'s, started by the
/// engine.  Ends `scope`.
template <typename Exchange>
MultisearchResult run_lockstep(int peers, int exec_threads,
                               const Timer& timer, RunScope& scope,
                               const MakePeer& make);

/// Runs every peer free on its own thread; solutions travel through one
/// mailbox per peer and are taken in before each iteration.  The merged
/// wall time is `timer`'s.  Ends `scope`.
template <typename Exchange>
MultisearchResult run_islands(int peers, const Timer& timer, RunScope& scope,
                              const MakePeer& make);

}  // namespace tsmo
