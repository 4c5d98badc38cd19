#include "core/sequential_tsmo.hpp"

#include <algorithm>
#include <memory>

#include "obs/flight_recorder.hpp"
#include "util/profiler.hpp"
#include "util/stop.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace tsmo {

RunResult collect_result(const SearchState& state, std::string algorithm,
                         double wall_seconds) {
  RunResult r;
  r.algorithm = std::move(algorithm);
  for (const auto& e : state.archive().entries()) {
    r.front.push_back(e.obj);
    r.solutions.push_back(*e.value);
    r.attribution.push_back(state.attribution_for(e.obj));
  }
  r.evaluations = state.evaluations();
  r.iterations = state.iterations();
  r.restarts = state.restarts();
  r.archive_fingerprint = archive_fingerprint(r.front);
  r.trace_fingerprint = state.trace().fingerprint();
  r.wall_seconds = wall_seconds;
  r.stopped_early = state.stop_flag_raised();
  r.introspect = state.istats();
  r.refresh_throughput();
  obs::flight_fingerprint(r.trace_fingerprint);
  return r;
}

RunResult SequentialTsmo::run(const IterationObserver& observer) const {
  // Re-establish the caller's causal trace on this thread (DESIGN.md §13);
  // every span below parents under the request's job.run span.
  telemetry::TraceScope trace_scope(
      telemetry::TraceContext{params_.trace_id, params_.trace_parent_span});
  if (params_.telemetry) telemetry::set_enabled(true);
  if (params_.profile_hz > 0) prof::start(params_.profile_hz);
  TSMO_SPAN("run.sequential");
  TSMO_PROFILE_FRAME("run.sequential");
  obs::flight_engine_start("sequential", 1, 0, params_.trace_id);
  Timer timer;
  SearchState state(*inst_, params_, Rng(params_.seed));
  // Live introspection: an injected hub wins; otherwise params.introspect
  // makes the run own one so the registry's /metrics gauges see it.
  std::unique_ptr<LiveIntrospect> own_introspect;
  LiveIntrospect* live = introspect_;
  if (live == nullptr && params_.introspect) {
    own_introspect = std::make_unique<LiveIntrospect>("sequential");
    live = own_introspect.get();
  }
  if (live != nullptr) state.set_introspect(live);
  state.initialize();

  while (!state.budget_exhausted()) {
    const std::int64_t remaining =
        params_.max_evaluations - state.evaluations();
    const int want = static_cast<int>(std::min<std::int64_t>(
        params_.neighborhood_size, remaining));
    if (want <= 0) break;
    const std::vector<Candidate> candidates =
        state.generate_candidates(want);
    const auto outcome = state.step_with_candidates(candidates);
    if (observer) {
      IterationEvent ev;
      ev.iteration = state.iterations();
      ev.evaluations = state.evaluations();
      ev.current = state.current()->objectives();
      ev.candidates = &candidates;
      ev.restarted = outcome.restarted;
      ev.archive_improved = outcome.archive_improved;
      observer(ev);
    }
  }
  obs::flight_engine_finish("sequential", state.iterations(),
                            params_.trace_id);
  return collect_result(state, "sequential", timer.elapsed_seconds());
}

}  // namespace tsmo
