#include "core/params.hpp"

#include <algorithm>
#include <cmath>

namespace tsmo {

namespace {

int perturb_int(int value, Rng& rng) {
  const double noisy =
      static_cast<double>(value) +
      rng.normal(0.0, static_cast<double>(value) / 4.0);
  return static_cast<int>(std::lround(noisy));
}

}  // namespace

// candidate_k is deliberately NOT perturbed: perturbing it would add RNG
// draws (breaking every golden-seed fingerprint) and it must agree across
// all searchers sharing one candidate list.
TsmoParams TsmoParams::perturbed(Rng& rng) const {
  TsmoParams p = *this;
  p.neighborhood_size = perturb_int(neighborhood_size, rng);
  p.tabu_tenure = perturb_int(tabu_tenure, rng);
  p.archive_capacity = perturb_int(archive_capacity, rng);
  p.nondom_capacity = perturb_int(nondom_capacity, rng);
  p.restart_after = perturb_int(restart_after, rng);
  p.clamp();
  return p;
}

void TsmoParams::clamp() {
  max_evaluations = std::max<std::int64_t>(max_evaluations, 1);
  neighborhood_size = std::max(neighborhood_size, 1);
  tabu_tenure = std::max(tabu_tenure, 1);
  archive_capacity = std::max(archive_capacity, 2);
  nondom_capacity = std::max(nondom_capacity, 1);
  restart_after = std::max(restart_after, 1);
  candidate_k = std::max(candidate_k, 0);
}

}  // namespace tsmo
