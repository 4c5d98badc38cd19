#include "core/adaptive_memory.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "construct/i1_insertion.hpp"
#include "construct/insertion_utils.hpp"
#include "core/search_state.hpp"
#include "moo/archive.hpp"
#include "util/timer.hpp"

namespace tsmo {

namespace {

/// One remembered route with the quality of the solution it came from
/// (lower is better; tardiness is penalized heavily so the pool prefers
/// parts of feasible solutions).
struct PooledRoute {
  std::vector<int> route;
  double parent_quality = 0.0;
};

double solution_quality(const Objectives& o) {
  return o.distance + 1000.0 * o.tardiness +
         50.0 * static_cast<double>(o.vehicles);
}

}  // namespace

RunResult AdaptiveMemoryTsmo::run() const {
  Timer timer;
  Rng rng(params_.seed);
  ParetoArchive<std::shared_ptr<const Solution>> global(
      static_cast<std::size_t>(std::max(params_.inner.archive_capacity, 2)));
  std::vector<PooledRoute> pool;

  std::int64_t evaluations = 0;
  std::int64_t cycles = 0;
  std::int64_t restarts = 0;

  while (evaluations < params_.max_evaluations) {
    // --- (1) Assemble a starting solution from the memory. ---
    Solution start(*inst_);
    if (pool.empty()) {
      // Counted by the burst's initialize_with below.
      start = construct_i1_random(*inst_, rng);
    } else {
      std::vector<bool> used(
          static_cast<std::size_t>(inst_->num_sites()), false);
      std::vector<std::vector<int>> routes;
      // Biased draws without replacement: the pool is kept sorted by
      // parent quality, so u^bias concentrates picks near the front.
      std::vector<std::size_t> order(pool.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      while (!order.empty() &&
             static_cast<int>(routes.size()) < inst_->max_vehicles()) {
        const double u = rng.uniform();
        const auto pick = static_cast<std::size_t>(
            std::pow(u, params_.selection_bias) *
            static_cast<double>(order.size()));
        const std::size_t idx = order[std::min(pick, order.size() - 1)];
        order.erase(std::find(order.begin(), order.end(), idx));
        const auto& candidate = pool[idx].route;
        bool overlaps = false;
        for (int c : candidate) {
          if (used[static_cast<std::size_t>(c)]) {
            overlaps = true;
            break;
          }
        }
        if (overlaps) continue;
        for (int c : candidate) used[static_cast<std::size_t>(c)] = true;
        routes.push_back(candidate);
      }
      start = Solution::from_routes(*inst_, std::move(routes));
      // Leftover customers: best-cost insertion (shared with BCRC).
      for (int c = 1; c <= inst_->num_customers(); ++c) {
        if (!used[static_cast<std::size_t>(c)]) {
          best_cost_insert(start, c, rng);
        }
      }
    }

    // --- (2) Improvement burst with the shared TSMO machinery. ---
    TsmoParams inner = params_.inner;
    inner.max_evaluations = std::min<std::int64_t>(
        params_.cycle_evaluations, params_.max_evaluations - evaluations);
    if (inner.max_evaluations < inner.neighborhood_size) {
      inner.max_evaluations = std::max<std::int64_t>(
          inner.max_evaluations, 1);
    }
    inner.seed = rng.next();
    SearchState state(*inst_, inner, Rng(inner.seed));
    state.initialize_with(std::move(start));
    while (!state.budget_exhausted()) {
      const std::int64_t remaining =
          inner.max_evaluations - state.evaluations();
      const int want = static_cast<int>(std::min<std::int64_t>(
          inner.neighborhood_size, remaining));
      if (want <= 0) break;
      state.step_with_candidates(state.generate_candidates(want));
    }
    evaluations += state.evaluations();
    restarts += state.restarts();

    // --- (3) Harvest: archive and route pool. ---
    for (const auto& entry : state.archive().entries()) {
      global.try_add(entry.obj, entry.value);
      const double quality = solution_quality(entry.obj);
      for (int r = 0; r < entry.value->num_routes(); ++r) {
        if (entry.value->route(r).empty()) continue;
        pool.push_back(PooledRoute{entry.value->route(r), quality});
      }
    }
    std::sort(pool.begin(), pool.end(),
              [](const PooledRoute& a, const PooledRoute& b) {
                return a.parent_quality < b.parent_quality;
              });
    if (pool.size() > static_cast<std::size_t>(params_.pool_capacity)) {
      pool.resize(static_cast<std::size_t>(params_.pool_capacity));
    }
    ++cycles;
  }

  RunResult result;
  result.algorithm = "adaptive-memory";
  for (const auto& entry : global.entries()) {
    result.front.push_back(entry.obj);
    result.solutions.push_back(*entry.value);
  }
  result.evaluations = evaluations;
  result.iterations = cycles;
  result.restarts = restarts;
  result.wall_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace tsmo
