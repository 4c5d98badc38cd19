#pragma once

// Collaborative multisearch TSMO (§III.E).
//
// P searchers run concurrently.  Searcher 0 keeps the base parameters; the
// others perturb each parameter with N(0, p/4) noise.  After an initial
// phase (which ends the first time a searcher goes `restart_after`
// iterations without improving its archive), a searcher that adds a
// solution to its Pareto archive sends that solution to exactly one peer —
// the head of its private communication list, which is then rotated.  The
// receiver tries to store it in its M_nondom, from where a restart can pick
// it up ("good solutions find their way to other searchers who can explore
// this region as well").  The rule is Collaborator's
// (parallel/collaboration.hpp); each searcher takes one plain TSMO step per
// iteration.
//
// Budget semantics: every searcher owns a full evaluation budget — the
// paper observes the collaborative variant "performs a sequential
// algorithm with communication between the processors", with runtime
// *growing* in P while quality improves.  The reported front is the merged
// non-dominated union of all archives.

#include <vector>

#include "core/run_context.hpp"
#include "core/run_result.hpp"
#include "core/search_state.hpp"
#include "parallel/options.hpp"

namespace tsmo {

struct MultisearchResult {
  RunResult merged;                     ///< non-dominated union
  std::vector<RunResult> per_searcher;  ///< individual archives
  std::int64_t messages_sent = 0;
  std::int64_t messages_accepted = 0;  ///< stored in a receiver's M_nondom
};

class MultisearchTsmo {
 public:
  /// Deterministic mode advances the searchers in lock-step rounds;
  /// solutions sent in round r are delivered at the start of round r+1,
  /// routed in sender-id order.
  MultisearchTsmo(const Instance& inst, const TsmoParams& params,
                  int processors, MultisearchOptions options = {},
                  RunContext ctx = {})
      : inst_(&inst),
        params_(params),
        processors_(processors),
        options_(options),
        ctx_(ctx) {}

  MultisearchResult run() const;

 private:
  const Instance* inst_;
  TsmoParams params_;
  int processors_;
  MultisearchOptions options_;
  RunContext ctx_;
};

/// Non-dominated union of several results (fronts and solutions); counters
/// are summed, wall time is the max (parallel composition).
RunResult merge_results(const std::vector<RunResult>& results,
                        std::string algorithm);

}  // namespace tsmo
