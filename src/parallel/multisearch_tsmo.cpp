#include "parallel/multisearch_tsmo.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <thread>

#include "core/sequential_tsmo.hpp"
#include "parallel/channel.hpp"
#include "parallel/thread_pool.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace tsmo {

RunResult merge_results(const std::vector<RunResult>& results,
                        std::string algorithm) {
  RunResult merged;
  merged.algorithm = std::move(algorithm);
  for (const RunResult& r : results) {
    merged.evaluations += r.evaluations;
    merged.iterations += r.iterations;
    merged.restarts += r.restarts;
    merged.wall_seconds = std::max(merged.wall_seconds, r.wall_seconds);
    merged.sim_seconds = std::max(merged.sim_seconds, r.sim_seconds);
    merged.introspect.merge(r.introspect);
    for (std::size_t i = 0; i < r.front.size(); ++i) {
      // The weak-dominance check also rejects exact duplicates, so an
      // objective vector reached by several searchers keeps exactly one
      // merged entry — and therefore one attribution row (first searcher
      // wins) — never double-counting a shared point.
      bool dominated = false;
      for (const Objectives& o : merged.front) {
        if (weakly_dominates(o, r.front[i])) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      for (std::size_t j = merged.front.size(); j-- > 0;) {
        if (dominates(r.front[i], merged.front[j])) {
          merged.front.erase(merged.front.begin() +
                             static_cast<std::ptrdiff_t>(j));
          merged.solutions.erase(merged.solutions.begin() +
                                 static_cast<std::ptrdiff_t>(j));
          merged.attribution.erase(merged.attribution.begin() +
                                   static_cast<std::ptrdiff_t>(j));
        }
      }
      merged.front.push_back(r.front[i]);
      merged.solutions.push_back(r.solutions[i]);
      merged.attribution.push_back(i < r.attribution.size()
                                       ? r.attribution[i]
                                       : ArchiveAttribution{});
    }
  }
  merged.archive_fingerprint = archive_fingerprint(merged.front);
  for (const RunResult& r : results) {
    merged.trace_fingerprint ^= r.trace_fingerprint;  // order-independent
  }
  merged.refresh_throughput();
  return merged;
}

MultisearchResult MultisearchTsmo::run() const {
  if (options_.deterministic) return run_deterministic();
  const int procs = std::max(2, processors_);
  const auto n = static_cast<std::size_t>(procs);
  RunScope scope("run.coll", params_, ctx_, procs, 0);
  // Searcher threads re-establish the ambient context captured here, so
  // their iteration spans parent under the run.coll span.
  const telemetry::TraceContext searcher_ctx = telemetry::current_trace();
  Timer timer;

  // One mailbox per searcher; solutions travel as shared handles on
  // immutable Solutions (DESIGN.md §16).
  std::vector<std::unique_ptr<Channel<std::shared_ptr<const Solution>>>>
      mailboxes;
  mailboxes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mailboxes.push_back(
        std::make_unique<Channel<std::shared_ptr<const Solution>>>());
    TSMO_TELEMETRY_ONLY(if (telemetry::enabled()) {
      mailboxes.back()->enable_telemetry("mailbox" + std::to_string(i));
    })
  }

  std::vector<RunResult> per_searcher(n);
  std::atomic<std::int64_t> messages_sent{0};
  std::atomic<std::int64_t> messages_accepted{0};
  // candidate_k is never perturbed, so every searcher shares one list.
  const auto shared_cands = make_candidate_list(*inst_, params_.candidate_k);

  auto searcher = [&](int id) {
    telemetry::TraceScope searcher_scope(searcher_ctx);
    Timer local_timer;
    TSMO_TELEMETRY_ONLY(if (telemetry::enabled()) {
      telemetry::Registry::instance().set_thread_label(
          "coll searcher " + std::to_string(id));
    })
    Rng rng(params_.seed + static_cast<std::uint64_t>(id) * 0x51ed2701ULL);
    // Searcher 0 keeps the base parameters; others perturb (§III.E).
    TsmoParams p = id == 0 ? params_ : params_.perturbed(rng);
    p.max_evaluations = params_.max_evaluations;  // full budget each
    p.seed = rng.next();

    SearchState state(*inst_, p, Rng(p.seed), shared_cands);
    state.set_trace_id(id);
    scope.attach(state, id);
    state.initialize();

    // Random private communication list over the other searchers.
    std::vector<int> comm;
    for (int k = 0; k < procs; ++k) {
      if (k != id) comm.push_back(k);
    }
    for (std::size_t k = comm.size(); k > 1; --k) {
      std::swap(comm[k - 1], comm[rng.below(k)]);
    }

    bool initial_phase = true;
    while (!state.budget_exhausted()) {
      TSMO_SPAN("coll.iteration");
      TSMO_PROFILE_FRAME("coll.iteration");
      // Incorporate peer solutions before the next step.
      while (auto received = mailboxes[static_cast<std::size_t>(id)]
                                 ->try_pop()) {
        TSMO_COUNT("coll.messages_received");
        if (state.receive(std::move(*received))) {
          TSMO_COUNT("coll.messages_accepted");
          messages_accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }

      const std::int64_t remaining =
          p.max_evaluations - state.evaluations();
      const int want = static_cast<int>(
          std::min<std::int64_t>(p.neighborhood_size, remaining));
      if (want <= 0) break;
      const auto candidates = state.generate_candidates(want);
      const auto outcome = state.step_with_candidates(candidates);

      if (initial_phase && state.iterations_since_improvement() >=
                               p.restart_after) {
        initial_phase = false;  // stagnated once: start collaborating
      }
      if (!initial_phase && outcome.archive_improved && !comm.empty()) {
        const int target = comm.front();
        std::rotate(comm.begin(), comm.begin() + 1, comm.end());
        state.trace().record_event(
            RunTrace::kTagSend, static_cast<std::uint64_t>(target),
            hash_objectives(state.current()->objectives()));
        mailboxes[static_cast<std::size_t>(target)]->push(state.current());
        TSMO_COUNT("coll.messages_sent");
        messages_sent.fetch_add(1, std::memory_order_relaxed);
      }
    }
    per_searcher[static_cast<std::size_t>(id)] = collect_result(
        state, "coll[" + std::to_string(id) + "]",
        local_timer.elapsed_seconds());
  };

  {
    std::vector<std::jthread> threads;
    threads.reserve(n);
    for (int id = 0; id < procs; ++id) {
      threads.emplace_back(searcher, id);
    }
  }  // join

  MultisearchResult result;
  result.per_searcher = std::move(per_searcher);
  result.merged = merge_results(result.per_searcher, "coll");
  result.merged.wall_seconds = timer.elapsed_seconds();
  result.merged.refresh_throughput();
  result.messages_sent = messages_sent.load();
  result.messages_accepted = messages_accepted.load();
  scope.finish(result.merged.iterations);
  return result;
}

MultisearchResult MultisearchTsmo::run_deterministic() const {
  const int procs = std::max(2, processors_);
  const auto n = static_cast<std::size_t>(procs);
  const int exec = options_.exec_threads > 0 ? options_.exec_threads : procs;
  RunScope scope("run.coll", params_, ctx_, procs, 0);
  // Pool threads re-establish this ambient context per round step.
  const telemetry::TraceContext searcher_ctx = telemetry::current_trace();
  Timer timer;

  // Per-searcher state; each round's step touches only its own slot, so
  // rounds can fan out over any number of threads.
  struct Searcher {
    std::unique_ptr<SearchState> state;
    TsmoParams p;
    std::vector<int> comm;
    std::vector<std::shared_ptr<const Solution>> inbox;  ///< between rounds
    std::vector<std::pair<int, std::shared_ptr<const Solution>>> outbox;
    Timer local_timer;
    bool initial_phase = true;
    bool done = false;
    std::int64_t sent = 0;
    std::int64_t accepted = 0;
    RunResult result;
  };
  std::vector<Searcher> searchers(n);
  const auto shared_cands = make_candidate_list(*inst_, params_.candidate_k);
  for (int id = 0; id < procs; ++id) {
    Searcher& s = searchers[static_cast<std::size_t>(id)];
    Rng rng(params_.seed + static_cast<std::uint64_t>(id) * 0x51ed2701ULL);
    s.p = id == 0 ? params_ : params_.perturbed(rng);
    s.p.max_evaluations = params_.max_evaluations;
    s.p.seed = rng.next();
    s.state = std::make_unique<SearchState>(*inst_, s.p, Rng(s.p.seed),
                                            shared_cands);
    s.state->set_trace_id(id);
    scope.attach(*s.state, id);
    for (int k = 0; k < procs; ++k) {
      if (k != id) s.comm.push_back(k);
    }
    for (std::size_t k = s.comm.size(); k > 1; --k) {
      std::swap(s.comm[k - 1], s.comm[rng.below(k)]);
    }
  }

  ThreadPool pool(static_cast<unsigned>(std::max(1, exec)));
  {
    std::vector<std::future<void>> init;
    init.reserve(n);
    for (Searcher& s : searchers) {
      init.push_back(pool.submit([&s] { s.state->initialize(); }));
    }
    for (auto& f : init) f.get();
  }

  auto step_one = [&](int id) {
    telemetry::TraceScope searcher_scope(searcher_ctx);
    Searcher& s = searchers[static_cast<std::size_t>(id)];
    TSMO_SPAN("coll.iteration");
    TSMO_PROFILE_FRAME("coll.iteration");
    // Deliver peer solutions in the deterministic inter-round order.
    for (std::shared_ptr<const Solution>& sol : s.inbox) {
      TSMO_COUNT("coll.messages_received");
      if (s.state->receive(std::move(sol))) {
        TSMO_COUNT("coll.messages_accepted");
        ++s.accepted;
      }
    }
    s.inbox.clear();

    const std::int64_t remaining =
        s.p.max_evaluations - s.state->evaluations();
    const int want = static_cast<int>(
        std::min<std::int64_t>(s.p.neighborhood_size, remaining));
    if (s.state->budget_exhausted() || want <= 0) {
      s.done = true;
      s.result = collect_result(*s.state, "coll[" + std::to_string(id) + "]",
                                s.local_timer.elapsed_seconds());
      return;
    }
    const auto candidates = s.state->generate_candidates(want);
    const auto outcome = s.state->step_with_candidates(candidates);

    if (s.initial_phase &&
        s.state->iterations_since_improvement() >= s.p.restart_after) {
      s.initial_phase = false;
    }
    if (!s.initial_phase && outcome.archive_improved && !s.comm.empty()) {
      const int target = s.comm.front();
      std::rotate(s.comm.begin(), s.comm.begin() + 1, s.comm.end());
      s.state->trace().record_event(
          RunTrace::kTagSend, static_cast<std::uint64_t>(target),
          hash_objectives(s.state->current()->objectives()));
      s.outbox.emplace_back(target, s.state->current());
      TSMO_COUNT("coll.messages_sent");
      ++s.sent;
    }
  };

  for (;;) {
    std::vector<int> alive;
    for (int id = 0; id < procs; ++id) {
      if (!searchers[static_cast<std::size_t>(id)].done) alive.push_back(id);
    }
    if (alive.empty()) break;
    std::vector<std::future<void>> round;
    round.reserve(alive.size());
    for (int id : alive) {
      round.push_back(pool.submit([&step_one, id] { step_one(id); }));
    }
    for (auto& f : round) f.get();
    // Messages sent in round r reach their peer at the start of round
    // r+1, routed in sender-id order; a finished receiver drops them.
    for (Searcher& s : searchers) {
      for (auto& [target, sol] : s.outbox) {
        Searcher& t = searchers[static_cast<std::size_t>(target)];
        if (!t.done) t.inbox.push_back(std::move(sol));
      }
      s.outbox.clear();
    }
  }

  MultisearchResult result;
  result.per_searcher.reserve(n);
  for (Searcher& s : searchers) {
    result.messages_sent += s.sent;
    result.messages_accepted += s.accepted;
    result.per_searcher.push_back(std::move(s.result));
  }
  result.merged = merge_results(result.per_searcher, "coll");
  result.merged.wall_seconds = timer.elapsed_seconds();
  result.merged.refresh_throughput();
  scope.finish(result.merged.iterations);
  return result;
}

}  // namespace tsmo
