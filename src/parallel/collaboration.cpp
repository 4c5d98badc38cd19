#include "parallel/collaboration.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "core/sequential_tsmo.hpp"
#include "parallel/channel.hpp"
#include "parallel/thread_pool.hpp"
#include "util/profiler.hpp"

namespace tsmo {

Collaborator::Collaborator(const TsmoParams& base, int id, int searchers,
                           std::uint64_t salt) {
  Rng rng(base.seed + static_cast<std::uint64_t>(id) * salt);
  // perturbed() leaves max_evaluations alone: every searcher owns the
  // full budget.
  params_ = id == 0 ? base : base.perturbed(rng);
  params_.seed = rng.next();
  for (int k = 0; k < searchers; ++k) {
    if (k != id) comm_.push_back(k);
  }
  for (std::size_t k = comm_.size(); k > 1; --k) {
    std::swap(comm_[k - 1], comm_[rng.below(k)]);
  }
}

std::optional<int> Collaborator::send_target(int iterations_since_improvement,
                                             bool archive_improved) {
  if (iterations_since_improvement >= params_.restart_after) {
    initial_phase_ = false;  // stagnated once: start collaborating
  }
  if (initial_phase_ || !archive_improved || comm_.empty()) {
    return std::nullopt;
  }
  const int target = comm_.front();
  std::rotate(comm_.begin(), comm_.begin() + 1, comm_.end());
  return target;
}

Peer::Peer(const Instance& inst, const TsmoParams& base, int id, int peers,
           std::uint64_t salt, std::shared_ptr<const CandidateList> cands)
    : collab(base, id, peers, salt),
      state(inst, collab.params(), Rng(collab.params().seed),
            std::move(cands)) {
  state.set_trace_id(id);
}

std::optional<SearchState::StepOutcome> Peer::iterate() {
  const TsmoParams& p = collab.params();
  const int want = static_cast<int>(std::min<std::int64_t>(
      p.neighborhood_size, p.max_evaluations - state.evaluations()));
  if (want <= 0) return std::nullopt;
  return state.step_with_candidates(state.generate_candidates(want));
}

namespace {

std::string result_name(const char* engine, int id) {
  return std::string(engine) + "[" + std::to_string(id) + "]";
}

}  // namespace

MultisearchResult finish_run(std::vector<RunResult> per_searcher,
                             const char* engine, std::int64_t sent,
                             std::int64_t accepted, double wall_seconds,
                             RunScope& scope) {
  MultisearchResult result;
  result.per_searcher = std::move(per_searcher);
  result.merged = merge_results(result.per_searcher, engine);
  result.merged.wall_seconds = wall_seconds;
  result.merged.refresh_throughput();
  result.messages_sent = sent;
  result.messages_accepted = accepted;
  scope.finish(result.merged.iterations);
  return result;
}

template <typename Exchange>
MultisearchResult run_lockstep(int peers, int exec_threads,
                               const Timer& timer, RunScope& scope,
                               const MakePeer& make) {
  // Pool threads re-establish this ambient context per round step.
  const telemetry::TraceContext peer_ctx = telemetry::current_trace();

  struct Slot {
    std::unique_ptr<Peer> peer;
    std::vector<std::shared_ptr<const Solution>> inbox;  ///< between rounds
    std::vector<std::pair<int, std::shared_ptr<const Solution>>> outbox;
    Timer local_timer;
    bool done = false;
    std::int64_t sent = 0;
    std::int64_t accepted = 0;
    RunResult result;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(peers));
  std::vector<int> alive;
  for (int id = 0; id < peers; ++id) {
    Slot& s = slots[static_cast<std::size_t>(id)];
    s.peer = make(id);
    scope.attach(s.peer->state, id);
    alive.push_back(id);
  }

  ThreadPool pool(static_cast<unsigned>(std::max(1, exec_threads)));
  const auto fan_out = [&](const auto& fn) {
    std::vector<std::future<void>> futures;
    futures.reserve(alive.size());
    for (int id : alive) {
      futures.push_back(pool.submit([&fn, id] { fn(id); }));
    }
    for (auto& f : futures) f.get();
  };
  fan_out([&](int id) {
    slots[static_cast<std::size_t>(id)].peer->state.initialize();
  });

  const auto step_one = [&](int id) {
    telemetry::TraceScope trace_scope(peer_ctx);
    Slot& s = slots[static_cast<std::size_t>(id)];
    SearchState& state = s.peer->state;
    TSMO_SPAN(Exchange::iteration);
    TSMO_PROFILE_FRAME(Exchange::iteration);
    for (std::shared_ptr<const Solution>& sol : s.inbox) {
      if (take_in<Exchange>(state, std::move(sol))) ++s.accepted;
    }
    s.inbox.clear();
    const auto outcome =
        state.budget_exhausted() ? std::nullopt : s.peer->iterate();
    if (!outcome) {
      s.done = true;
      s.result = collect_result(state, result_name(Exchange::name, id),
                                s.local_timer.elapsed_seconds());
      return;
    }
    if (const auto target =
            send_target<Exchange>(*s.peer, outcome->archive_improved)) {
      s.outbox.emplace_back(*target, state.current());
      ++s.sent;
    }
  };

  while (!alive.empty()) {
    fan_out(step_one);
    // Messages sent in round r reach their peer at the start of round
    // r+1, routed in sender-id order; a finished receiver drops them.
    alive.clear();
    for (int id = 0; id < peers; ++id) {
      Slot& s = slots[static_cast<std::size_t>(id)];
      for (auto& [target, sol] : s.outbox) {
        Slot& t = slots[static_cast<std::size_t>(target)];
        if (!t.done) t.inbox.push_back(std::move(sol));
      }
      s.outbox.clear();
      if (!s.done) alive.push_back(id);
    }
  }

  std::vector<RunResult> results;
  std::int64_t sent = 0;
  std::int64_t accepted = 0;
  for (Slot& s : slots) {
    sent += s.sent;
    accepted += s.accepted;
    results.push_back(std::move(s.result));
  }
  return finish_run(std::move(results), Exchange::name, sent, accepted,
                    timer.elapsed_seconds(), scope);
}

template <typename Exchange>
MultisearchResult run_islands(int peers, const Timer& timer, RunScope& scope,
                              const MakePeer& make) {
  const auto n = static_cast<std::size_t>(peers);
  // Peer threads re-establish the ambient context captured here, so their
  // spans parent under the run span.
  const telemetry::TraceContext peer_ctx = telemetry::current_trace();

  // One mailbox per peer; solutions travel as shared handles on immutable
  // Solutions (DESIGN.md §16).
  std::vector<std::unique_ptr<Channel<std::shared_ptr<const Solution>>>>
      mailboxes;
  mailboxes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mailboxes.push_back(
        std::make_unique<Channel<std::shared_ptr<const Solution>>>());
    TSMO_TELEMETRY_ONLY(if (telemetry::enabled()) {
      mailboxes.back()->enable_telemetry(Exchange::mailbox +
                                         std::to_string(i));
    })
  }
  std::vector<RunResult> results(n);
  std::atomic<std::int64_t> sent{0};
  std::atomic<std::int64_t> accepted{0};

  const auto run_peer = [&](int id) {
    telemetry::TraceScope trace_scope(peer_ctx);
    Timer local_timer;
    TSMO_TELEMETRY_ONLY(if (telemetry::enabled()) {
      telemetry::Registry::instance().set_thread_label(Exchange::thread +
                                                       std::to_string(id));
    })
    const std::unique_ptr<Peer> peer = make(id);
    SearchState& state = peer->state;
    scope.attach(state, id);
    state.initialize();
    auto& inbox = *mailboxes[static_cast<std::size_t>(id)];
    while (!state.budget_exhausted()) {
      TSMO_SPAN(Exchange::iteration);
      TSMO_PROFILE_FRAME(Exchange::iteration);
      while (auto sol = inbox.try_pop()) {
        if (take_in<Exchange>(state, std::move(*sol))) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
      const auto outcome = peer->iterate();
      if (!outcome) break;
      if (const auto target =
              send_target<Exchange>(*peer, outcome->archive_improved)) {
        mailboxes[static_cast<std::size_t>(*target)]->push(state.current());
        sent.fetch_add(1, std::memory_order_relaxed);
      }
    }
    results[static_cast<std::size_t>(id)] =
        collect_result(state, result_name(Exchange::name, id),
                       local_timer.elapsed_seconds());
    // Sign out before the peer dies; a concurrent watchdog verdict then
    // finds no state instead of a dangling pointer.
    scope.forget_stall(id);
  };

  {
    std::vector<std::jthread> threads;
    threads.reserve(n);
    for (int id = 0; id < peers; ++id) threads.emplace_back(run_peer, id);
  }  // join

  return finish_run(std::move(results), Exchange::name, sent.load(),
                    accepted.load(), timer.elapsed_seconds(), scope);
}

template MultisearchResult run_lockstep<CollExchange>(int, int, const Timer&,
                                                      RunScope&,
                                                      const MakePeer&);
template MultisearchResult run_lockstep<HybridExchange>(int, int,
                                                        const Timer&,
                                                        RunScope&,
                                                        const MakePeer&);
template MultisearchResult run_islands<CollExchange>(int, const Timer&,
                                                     RunScope&,
                                                     const MakePeer&);
template MultisearchResult run_islands<HybridExchange>(int, const Timer&,
                                                       RunScope&,
                                                       const MakePeer&);

}  // namespace tsmo
