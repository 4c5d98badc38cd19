#pragma once

// Spatial candidate lists (DESIGN.md §11): for every site, the k nearest
// customers that are time-window compatible.  The pruned neighborhood
// sampling mode (MoveEngine / NeighborhoodGenerator, candidate_k > 0) draws
// move endpoints from these lists instead of uniformly, so the vast
// majority of hopeless long-distance moves are never proposed — and never
// priced.  A sampler tests its anchor's whole row in one mask pass, 64
// slots a word, and k has no upper bound: rows longer than 64 are walked a
// word at a time.
//
// A pair (i, j) is kept when it is time-window *reachable in at least one
// direction*: serving j directly after i can start within j's window under
// the earliest possible departure from i (a_i + c_i + t_ij <= b_j), or the
// symmetric condition with the roles swapped.  Pairs unreachable in both
// directions can never form a junction edge that passes the paper's local
// feasibility criterion, so pruning them loses nothing.  Reachability in
// only one direction is kept because several operators (Exchange, 2-opt)
// can use the partner on either side of a junction.
//
// Lists are sorted by (distance, site index) — a total order independent of
// construction order — and stored in one flat CSR allocation, so the layer
// is deterministic and cheap to share read-only across searchers and
// worker threads.  Built once per Instance per run: per site, one
// branch-free pass over its row of T (both directions read that row, as T
// is symmetric bit for bit) and a partial sort of the survivors; a few
// milliseconds at 1000 customers.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "vrptw/instance.hpp"

namespace tsmo {

/// Directed time-window reachability of the junction edge from -> to:
/// leaving `from` at its earliest possible departure still meets `to`'s
/// due date.  The arithmetic oracle of the instance's junction bitmap:
/// Instance::junction_ok(from, to), which the Local screen and the pruned
/// samplers read, holds exactly this sum in this order.
inline bool tw_reachable(const Instance& inst, int from, int to) noexcept {
  const Site& a = inst.site(from);
  return a.ready + a.service + inst.distance(from, to) <= inst.site(to).due;
}

class CandidateList {
 public:
  /// Builds the k-nearest-customer lists for every site of `inst` (the
  /// depot included — its list is the customers reachable from the route
  /// start).  k <= 0 yields empty lists everywhere.
  CandidateList(const Instance& inst, int k);

  /// Requested list length (actual lists may be shorter after the TW
  /// filter, or on tiny instances).
  int k() const noexcept { return k_; }

  int num_sites() const noexcept {
    return static_cast<int>(offsets_.size()) - 1;
  }

  /// Candidate partners of `site`, nearest first; customers only, never
  /// `site` itself or the depot.
  std::span<const std::int32_t> neighbors(int site) const noexcept {
    const auto s = static_cast<std::size_t>(site);
    return {flat_.data() + offsets_[s],
            static_cast<std::size_t>(offsets_[s + 1] - offsets_[s])};
  }

  /// Build statistics: ordered (site, customer) pairs kept / discarded by
  /// the both-directions TW filter before the k-truncation.
  std::uint64_t pairs_kept() const noexcept { return pairs_kept_; }
  std::uint64_t pairs_tw_pruned() const noexcept { return pairs_tw_pruned_; }

 private:
  std::vector<std::int32_t> flat_;
  std::vector<std::int32_t> offsets_;
  int k_ = 0;
  std::uint64_t pairs_kept_ = 0;
  std::uint64_t pairs_tw_pruned_ = 0;
};

/// Shared list for one engine run, or nullptr when k <= 0 (legacy uniform
/// sampling).  All searchers and workers of a run share one immutable list.
std::shared_ptr<const CandidateList> make_candidate_list(const Instance& inst,
                                                         int k);

}  // namespace tsmo
