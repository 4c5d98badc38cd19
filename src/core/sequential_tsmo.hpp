#pragma once

// The sequential TSMO algorithm — Algorithm 1 of the paper.  This is the
// baseline row of Tables I-IV and the behavioural reference for the
// synchronous parallelization (which must match it in solution quality).

#include <functional>

#include "core/run_context.hpp"
#include "core/run_result.hpp"
#include "core/search_state.hpp"

namespace tsmo {

/// Per-iteration event delivered to observers; used by the Fig. 1
/// trajectory bench and by tests that assert loop invariants.
struct IterationEvent {
  std::int64_t iteration = 0;
  std::int64_t evaluations = 0;
  Objectives current;                        ///< objectives after the step
  const std::vector<Candidate>* candidates;  ///< this step's neighborhood
  bool restarted = false;
  bool archive_improved = false;
};

using IterationObserver = std::function<void(const IterationEvent&)>;

class SequentialTsmo {
 public:
  SequentialTsmo(const Instance& inst, const TsmoParams& params,
                 RunContext ctx = {})
      : inst_(&inst), params_(params), ctx_(ctx) {}

  /// Runs Algorithm 1 until the evaluation budget is exhausted.
  RunResult run(const IterationObserver& observer = {}) const;

 private:
  const Instance* inst_;
  TsmoParams params_;
  RunContext ctx_;
};

/// Copies the archive of a finished searcher into a RunResult.
RunResult collect_result(const SearchState& state, std::string algorithm,
                         double wall_seconds);

}  // namespace tsmo
