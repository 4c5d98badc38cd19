#include "core/sequential_tsmo.hpp"

#include <algorithm>

#include "obs/flight_recorder.hpp"
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
  RunScope scope("run.sequential", params_, ctx_, 1, 0);
  Timer timer;
  SearchState state(*inst_, params_, Rng(params_.seed));
  scope.attach(state);
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
  scope.finish(state.iterations());
  return collect_result(state, "sequential", timer.elapsed_seconds());
}

}  // namespace tsmo
