#include "core/candidate.hpp"

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
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    bool keep = true;
    for (std::size_t j = 0; j < candidates.size() && keep; ++j) {
      if (j == i) continue;
      if (dominates(candidates[j].obj, candidates[i].obj)) keep = false;
      if (j < i && candidates[j].obj == candidates[i].obj) keep = false;
    }
    if (keep) out.push_back(i);
  }
  return out;
}

}  // namespace tsmo
