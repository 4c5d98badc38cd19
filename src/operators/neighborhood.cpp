#include "operators/neighborhood.hpp"

#include <stdexcept>

#include "util/telemetry.hpp"

namespace tsmo {

NeighborhoodGenerator::NeighborhoodGenerator(
    const MoveEngine& engine,
    const std::array<double, kNumMoveTypes>& weights,
    FeasibilityScreen screen)
    : engine_(&engine), weights_(weights), screen_(screen) {
  for (double w : weights_) {
    if (w < 0.0) {
      throw std::invalid_argument(
          "NeighborhoodGenerator: negative operator weight");
    }
    total_weight_ += w;
  }
  if (total_weight_ <= 0.0) {
    throw std::invalid_argument(
        "NeighborhoodGenerator: all operator weights are zero");
  }
}

MoveType NeighborhoodGenerator::sample_type(Rng& rng) const {
  double x = rng.uniform(0.0, total_weight_);
  for (int t = 0; t < kNumMoveTypes; ++t) {
    x -= weights_[static_cast<std::size_t>(t)];
    if (x < 0.0) return static_cast<MoveType>(t);
  }
  return static_cast<MoveType>(kNumMoveTypes - 1);
}

std::vector<Neighbor> NeighborhoodGenerator::generate(const Solution& base,
                                                      int count,
                                                      Rng& rng) const {
  // Draw the whole neighborhood first.  Each propose() internally retries
  // a few position draws; this outer budget additionally re-draws the
  // operator type, matching the paper.
  moves_.clear();
  int draws_left = count * 25;
  while (static_cast<int>(moves_.size()) < count && draws_left-- > 0) {
    const MoveType type = sample_type(rng);
    if (const auto move = engine_->propose(type, base, rng, 12, screen_)) {
      moves_.push_back(*move);
    }
  }
  std::vector<Neighbor> out;
  if (moves_.empty()) return out;
  // "Move pricing": delta evaluation plus tabu-attribute extraction — the
  // per-neighbor cost the paper's neighborhood size multiplies.  Pricing
  // draws no random numbers, so one evaluate_batch pass prices the drawn
  // moves back to back.
  {
    TSMO_TIME_SCOPE("move.price_ns");
    engine_->evaluate_batch(base, moves_, objs_);
  }
  out.reserve(moves_.size());
  for (std::size_t i = 0; i < moves_.size(); ++i) {
    const Move& m = moves_[i];
    out.push_back({m, objs_[i], engine_->created_attrs(base, m),
                   engine_->destroyed_attrs(base, m)});
  }
  return out;
}

Solution NeighborhoodGenerator::materialize(const Solution& base,
                                            const Neighbor& n) const {
  Solution s = base;
  engine_->apply(s, n.move);
  return s;
}

}  // namespace tsmo
