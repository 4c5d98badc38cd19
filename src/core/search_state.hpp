#pragma once

// SearchState bundles everything one TSMO searcher owns — current solution,
// tabu list, the memories M_nondom and M_archive, its RNG stream — and
// implements the selection / restart / memory-update step of Algorithm 1.
//
// All four execution modes (sequential, synchronous and asynchronous
// master-worker, collaborative multisearch, and the DES-simulated variants)
// drive the *same* step_with_candidates(); they differ only in how and when
// candidate sets are produced.  This guarantees the quality comparison in
// the benchmarks measures the parallelization strategy, not divergent
// reimplementations.
//
// Memory ownership (DESIGN.md §16): the current solution, every M_archive
// member and every received solution are shared handles on immutable
// Solutions, so storing one is a reference-count bump.  M_nondom members
// are LazySolutions (base handle + move), built only when a restart takes
// them.  A Solution reachable through a handle is never mutated.

#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/candidate.hpp"
#include "core/params.hpp"
#include "core/run_result.hpp"
#include "core/tabu_list.hpp"
#include "moo/anytime.hpp"
#include "moo/archive.hpp"
#include "moo/introspect.hpp"
#include "moo/nondom_memory.hpp"
#include "operators/move_engine.hpp"
#include "operators/neighborhood.hpp"
#include "util/rng.hpp"
#include "util/stop.hpp"
#include "util/trace.hpp"
#include "vrptw/candidate_list.hpp"
#include "vrptw/instance.hpp"

namespace tsmo {

class SearchState {
 public:
  /// `cands` optionally shares one prebuilt candidate list across the
  /// searchers/workers of a run (engines build it once via
  /// make_candidate_list).  When params.candidate_k > 0 and no list is
  /// passed, the state builds its own — identical content either way, the
  /// list is a pure function of (instance, k).
  SearchState(const Instance& inst, const TsmoParams& params, Rng rng,
              std::shared_ptr<const CandidateList> cands = nullptr);

  // Non-copyable/movable: generator_ points at engine_, so a copied or
  // moved-from state would alias the wrong engine.
  SearchState(const SearchState&) = delete;
  SearchState& operator=(const SearchState&) = delete;

  /// Builds the I1 initial solution with random parameters (§III.B) and
  /// seeds the memories with it.  Counts as one evaluation.
  void initialize();

  /// Starts from a given solution instead (workers and tests).
  void initialize_with(Solution s);

  bool initialized() const noexcept { return current_ != nullptr; }

  /// Current solution as a shared handle — candidate sets keep their base
  /// alive through this.
  std::shared_ptr<const Solution> current() const noexcept {
    return current_;
  }

  const TsmoParams& params() const noexcept { return params_; }
  Rng& rng() noexcept { return rng_; }
  const MoveEngine& engine() const noexcept { return engine_; }
  const NeighborhoodGenerator& generator() const noexcept {
    return generator_;
  }
  const ParetoArchive<std::shared_ptr<const Solution>>& archive()
      const noexcept {
    return archive_;
  }
  const NondomMemory<LazySolution>& nondom() const noexcept {
    return nondom_;
  }
  const TabuList& tabu() const noexcept { return tabu_; }

  /// Generates an evaluated candidate set of `count` neighbors of the
  /// current solution (one evaluation each).
  std::vector<Candidate> generate_candidates(int count);

  struct StepOutcome {
    /// Index into the candidate vector of the accepted move, when one was
    /// accepted (its move was applied and its tabu features pushed).
    std::optional<std::size_t> selected;
    bool restarted = false;         ///< current was drawn from the memories
    bool archive_improved = false;  ///< M_archive changed this step
  };

  /// One iteration of Algorithm 1 given an externally produced candidate
  /// set: Select -> (restart?) -> UpdateMemories -> stagnation bookkeeping.
  /// An empty candidate set forces a restart.
  StepOutcome step_with_candidates(const std::vector<Candidate>& candidates);

  /// Multisearch reception (§III.E): "The process receiving the individual
  /// tries to store the solution in its memory of non-dominated solutions
  /// M_nondom."  Stores the sender's handle itself; returns true when
  /// stored.
  bool receive(std::shared_ptr<const Solution> s);

  /// Steps taken since initialization (one per step_with_candidates call).
  std::int64_t iterations() const noexcept { return iterations_; }
  std::int64_t restarts() const noexcept { return restarts_; }
  std::int64_t evaluations() const noexcept { return evaluations_; }
  /// External evaluation work (e.g. by workers on this searcher's behalf)
  /// is charged here so the budget check sees the global count.
  void charge_evaluations(std::int64_t n) noexcept { evaluations_ += n; }
  /// True when the evaluation budget is spent, when the last
  /// `restart_after` steps all had an empty candidate pool (no proposal
  /// passes the screen, so the budget would never be spent), *or* a
  /// cooperative stop was requested — either the process-wide flag
  /// (solver_cli's SIGINT/SIGTERM path) or this run's own stop flag
  /// (RunContext::stop, job-plane cancellation): every engine loop keys
  /// off this check, so a stop request drains exactly like budget
  /// exhaustion and results are still collected and flushed.
  bool budget_exhausted() const noexcept {
    return evaluations_ >= params_.max_evaluations ||
           empty_steps_ >= params_.restart_after || stop_flag_raised();
  }

  /// True when either cooperative stop flag (process-wide or per-run) is
  /// raised; collect_result() turns this into RunResult::stopped_early.
  bool stop_flag_raised() const noexcept {
    return stop_requested() ||
           (stop_ != nullptr && stop_->load(std::memory_order_relaxed));
  }

  /// Per-run stop flag (RunContext::stop); nullptr detaches.  The pointee
  /// must outlive the run.
  void set_stop_flag(const std::atomic<bool>* stop) noexcept { stop_ = stop; }

  int iterations_since_improvement() const noexcept {
    return static_cast<int>(iterations_ - last_improvement_);
  }
  bool stagnated() const noexcept { return no_improvement_; }

  /// Current operator weights (fixed unless params.adaptive_operators).
  const std::array<double, kNumMoveTypes>& operator_weights()
      const noexcept {
    return generator_.weights();
  }

  /// Replay trace (enabled by params.trace).  Engines append scheduling
  /// events; step_with_candidates records every search decision.
  RunTrace& trace() noexcept { return trace_; }
  const RunTrace& trace() const noexcept { return trace_; }

  /// Identifies this searcher in trace records (multisearch/hybrid set
  /// their searcher/island index; defaults to 0 for single-master modes).
  void set_trace_id(int id) noexcept { trace_id_ = id; }
  int trace_id() const noexcept { return trace_id_; }

  /// Attaches the anytime convergence recorder (DESIGN.md §9) under this
  /// searcher's trace id — call after set_trace_id.  Observation only:
  /// heartbeats, archive samples and insertion events; never touches the
  /// RNG or any search decision.  Pass nullptr to detach.
  void set_recorder(ConvergenceRecorder* rec) {
    set_recorder(rec, trace_id_);
  }
  /// Same, under an explicit recorder searcher id (the DES drivers keep
  /// their trace ids untouched so fingerprints are recorder-independent).
  void set_recorder(ConvergenceRecorder* rec, int searcher_id);

  /// Introspection counters (DESIGN.md §14): per-operator move funnel,
  /// tabu pressure, archive churn.  Always maintained — pure observation
  /// of values the step computes anyway — and copied into RunResult.
  const IntrospectStats& istats() const noexcept { return istats_; }

  /// Attaches this searcher to a live introspection hub (registering a
  /// fresh slot); step_with_candidates then publishes its counters after
  /// every step.  Pass nullptr to detach.  Observation only: never feeds
  /// back into the search.
  void set_introspect(LiveIntrospect* live) {
    live_introspect_ = live;
    introspect_slot_ = live != nullptr ? live->register_searcher() : -1;
  }

  /// Provenance of the current archive content: attribution of the last
  /// insertion of each member's objective vector (identity attribution
  /// when the vector was never tracked, e.g. for received solutions).
  ArchiveAttribution attribution_for(const Objectives& obj) const;

  /// Asynchronous diversification request (the stall watchdog's opt-in
  /// reaction): the next step treats the search as stagnated and restarts
  /// from the memories.  Safe from any thread.
  void request_restart() noexcept {
    external_restart_.store(true, std::memory_order_relaxed);
  }

 private:
  /// Select(N, M_tabulist): uniformly random among non-tabu members of the
  /// non-dominated subset `nd` (nondominated_indices of `candidates`);
  /// nullopt when all are tabu (or the set is empty).
  std::optional<std::size_t> select(const std::vector<Candidate>& candidates,
                                    const std::vector<std::size_t>& nd);

  /// SelectFrom(M_nondom ∪ M_archive): random union member; M_nondom
  /// entries are consumed (and built), M_archive members are shared.
  /// Falls back to a fresh I1 construction when both memories are empty
  /// (costs one evaluation).
  std::shared_ptr<const Solution> restart_pick();

  /// Re-derives operator weights from selected/offered statistics when
  /// the adaptive extension is enabled.
  void maybe_adapt_weights();

  /// Records that `obj` (re)entered the archive with the given provenance
  /// and forwards the insertion to the recorder when attached.
  void note_insertion(const Objectives& obj, int op, int worker);

  /// Folds an archive try_add outcome into the churn counters.
  void observe_archive_outcome(ArchiveOutcome o) noexcept;

  const Instance* inst_;
  TsmoParams params_;
  Rng rng_;
  std::shared_ptr<const CandidateList> cands_;  ///< outlives engine_
  MoveEngine engine_;
  NeighborhoodGenerator generator_;
  TabuList tabu_;
  NondomMemory<LazySolution> nondom_;
  ParetoArchive<std::shared_ptr<const Solution>> archive_;
  std::shared_ptr<const Solution> current_;
  RunTrace trace_;
  int trace_id_ = 0;
  ConvergenceRecorder::Searcher* recorder_ = nullptr;
  /// Last-writer provenance per distinct objective vector that entered the
  /// archive (linear scan: archives hold tens of points).  Always
  /// maintained so RunResult::attribution works without a recorder.
  std::vector<std::pair<Objectives, ArchiveAttribution>> provenance_;
  std::atomic<bool> external_restart_{false};
  const std::atomic<bool>* stop_ = nullptr;

  std::int64_t iterations_ = 0;
  std::int64_t restarts_ = 0;
  std::int64_t evaluations_ = 0;
  std::int64_t last_improvement_ = 0;
  int empty_steps_ = 0;  ///< consecutive steps on an empty pool
  bool no_improvement_ = false;
  std::array<std::int64_t, kNumMoveTypes> offered_{};
  std::array<std::int64_t, kNumMoveTypes> selected_{};
  IntrospectStats istats_;
  LiveIntrospect* live_introspect_ = nullptr;
  int introspect_slot_ = -1;
};

}  // namespace tsmo
