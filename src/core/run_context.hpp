#pragma once

// The observation around one engine run (DESIGN.md §17).
//
// RunContext holds everything about a run that is not a search parameter:
// the per-run stop flag, the request's causal trace, the profiler rate and
// the recorder and hub that watch the run.  None of it is perturbed or
// fingerprinted — golden-seed fingerprints are identical for any context —
// so it lives outside TsmoParams.  Every engine and DES driver takes one
// as its trailing, defaulted argument; an empty context observes nothing.
//
// RunScope does, once, what each run function used to do by hand: it
// re-establishes the trace, switches telemetry and the profiler on, opens
// the run.<engine> span and profile frame, records the engine start and
// finish (flight ring and recorder), and attaches the context to each
// SearchState before initialize().

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

class ConvergenceRecorder;
class LiveIntrospect;
class SearchState;

struct RunContext {
  /// Per-run cooperative stop flag (DESIGN.md §12): a raised flag ends the
  /// run like budget exhaustion, so the job plane can cancel one job
  /// without touching its neighbors.  The pointee must outlive the run.
  const std::atomic<bool>* stop = nullptr;
  /// Causal trace of the request (DESIGN.md §13): the run's spans parent
  /// under `trace.span_id` (0 = root); trace_id 0 leaves the run untraced.
  telemetry::TraceContext trace;
  /// Sampling profiler rate (DESIGN.md §14): > 0 arms it at that many
  /// samples per CPU second (clamped to [1, 1000]); 0 leaves it untouched.
  int profile_hz = 0;
  /// Anytime convergence recorder (DESIGN.md §9); each searcher attaches
  /// under its searcher id.  Must outlive the run.
  ConvergenceRecorder* recorder = nullptr;
  /// Live introspection hub (DESIGN.md §14); each searcher registers a
  /// slot.  The caller creates it; must outlive the run.
  LiveIntrospect* introspect = nullptr;
  /// Opt-in stall reaction: a watchdog verdict on a searcher restarts it
  /// from its memories.  Needs a recorder with a stall threshold; only the
  /// free-running async and hybrid loops honor it, because it makes the
  /// search depend on the wall clock.
  bool stall_restart = false;
};

class RunScope {
 public:
  /// Opens the run on this thread: re-establishes ctx.trace, switches
  /// telemetry on when params.telemetry, arms the profiler, opens the
  /// `span` span and profile frame and records the engine start.  `span`
  /// is a string literal "run.<engine>"; the engine name is its suffix.
  RunScope(const char* span, const TsmoParams& params, const RunContext& ctx,
           int searchers, int workers);

  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  /// Attaches the recorder (under `searcher`), the hub and the stop flag
  /// to `state`.  Call before state.initialize(), so the first I1
  /// insertion is recorded.
  void attach(SearchState& state, int searcher = 0) const;

  /// With ctx.stall_restart, routes watchdog verdicts on `searcher` to
  /// state.request_restart() until forget_stall(searcher) or finish().
  void restart_on_stall(SearchState& state, int searcher = 0);
  /// Signs `searcher` out of the stall reaction; call before its state
  /// dies while the run goes on (hybrid islands).
  void forget_stall(int searcher);

  /// Ends the run: clears the stall action, then records the engine
  /// finish.  Call once, before the attached states die.
  void finish(std::int64_t iterations);

 private:
  const char* engine_;
  RunContext ctx_;
  // Destroyed in reverse: the frame pops, the span closes, then the trace.
  telemetry::TraceScope trace_;
#if TSMO_TELEMETRY_ENABLED
  std::optional<telemetry::Span> span_;
  std::optional<prof::Frame> frame_;
#endif
  bool stall_armed_ = false;
  std::mutex stall_mutex_;
  std::vector<SearchState*> stall_states_;  ///< by searcher id
};

}  // namespace tsmo
