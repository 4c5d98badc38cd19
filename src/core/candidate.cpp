#include "core/candidate.hpp"

#include <algorithm>
#include <utility>

namespace tsmo {

std::vector<Candidate> make_candidates(
    const NeighborhoodGenerator& generator,
    std::shared_ptr<const Solution> base, int count, Rng& rng) {
  const std::vector<Neighbor> neighbors =
      generator.generate(*base, count, rng);
  std::vector<Candidate> out;
  out.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) {
    out.push_back(Candidate{n.obj, n.move, n.creates, n.destroys, base});
  }
  return out;
}

Solution materialize(const MoveEngine& engine, const Candidate& c) {
  Solution s = *c.base;
  engine.apply(s, c.move);
  return s;
}

std::shared_ptr<const Solution> materialize(const MoveEngine& engine,
                                            const LazySolution& s) {
  if (!s.move) return s.base;
  Solution out = *s.base;
  engine.apply(out, *s.move);
  return std::make_shared<const Solution>(std::move(out));
}

std::vector<std::size_t> nondominated_indices(
    const std::vector<Candidate>& candidates) {
  // One pass over a running front: a candidate that a member equals or
  // dominates is dropped, otherwise it evicts the members it dominates and
  // joins.  Members stay in scan order, so the front is ascending, and an
  // equal vector seen later never displaces the first.
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Objectives& o = candidates[i].obj;
    const bool covered =
        std::any_of(front.begin(), front.end(), [&](std::size_t f) {
          const Objectives& m = candidates[f].obj;
          return m == o || dominates(m, o);
        });
    if (covered) continue;
    std::erase_if(front, [&](std::size_t f) {
      return dominates(o, candidates[f].obj);
    });
    front.push_back(i);
  }
  return front;
}

}  // namespace tsmo
