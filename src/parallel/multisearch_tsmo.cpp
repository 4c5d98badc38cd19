#include "parallel/multisearch_tsmo.hpp"

#include <algorithm>
#include <memory>

#include "parallel/collaboration.hpp"
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
  const int procs = std::max(2, processors_);
  RunScope scope("run.coll", params_, ctx_, procs, 0);
  const Timer timer;
  // candidate_k is never perturbed, so every searcher shares one list.
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  const MakePeer make = [&](int id) {
    return std::make_unique<Peer>(*inst_, params_, id, procs,
                                  CollExchange::salt, cands);
  };
  if (!options_.deterministic) {
    return run_islands<CollExchange>(procs, timer, scope, make);
  }
  // One thread per searcher unless exec_threads says otherwise.
  const int exec = options_.exec_threads > 0 ? options_.exec_threads : procs;
  return run_lockstep<CollExchange>(procs, exec, timer, scope, make);
}

}  // namespace tsmo
