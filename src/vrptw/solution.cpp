#include "vrptw/solution.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace tsmo {

Solution::Solution(const Instance& inst)
    : inst_(&inst),
      routes_(static_cast<std::size_t>(inst.max_vehicles())),
      stats_(static_cast<std::size_t>(inst.max_vehicles())),
      caches_(static_cast<std::size_t>(inst.max_vehicles())),
      visits_(static_cast<std::size_t>(inst.num_sites())) {
  evaluated_ = true;  // all-empty fleet trivially evaluates to zero
}

Solution Solution::from_routes(const Instance& inst,
                               std::vector<std::vector<int>> routes) {
  if (static_cast<int>(routes.size()) > inst.max_vehicles()) {
    throw std::invalid_argument(
        "Solution::from_routes: more routes than vehicles");
  }
  Solution s(inst);
  for (std::size_t r = 0; r < routes.size(); ++r) {
    s.routes_[r] = std::move(routes[r]);
  }
  s.evaluated_ = false;
  s.dirty_.clear();
  s.evaluate();
  return s;
}

Solution Solution::from_permutation(const Instance& inst,
                                    std::span<const int> perm) {
  std::vector<std::vector<int>> routes;
  std::vector<int> current;
  for (int v : perm) {
    if (v < 0 || v > inst.num_customers()) {
      throw std::invalid_argument(
          "Solution::from_permutation: site index out of range");
    }
    if (v == 0) {
      if (!current.empty()) {
        routes.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(v);
    }
  }
  if (!current.empty()) routes.push_back(std::move(current));
  return from_routes(inst, std::move(routes));
}

std::vector<int>& Solution::mutable_route(int r) {
  if (std::find(dirty_.begin(), dirty_.end(), r) == dirty_.end()) {
    dirty_.push_back(r);
  }
  return routes_[static_cast<std::size_t>(r)];
}

void Solution::evaluate() {
  if (!evaluated_) {
    for (std::size_t r = 0; r < routes_.size(); ++r) {
      stats_[r] = evaluate_route_cached(*inst_, routes_[r], caches_[r]);
    }
    evaluated_ = true;
  } else {
    for (int r : dirty_) {
      const auto ur = static_cast<std::size_t>(r);
      stats_[ur] = evaluate_route_cached(*inst_, routes_[ur], caches_[ur]);
    }
  }
  dirty_.clear();
  recompute_totals();
  rebuild_index();
}

void Solution::recompute_totals() {
  // Empty routes contribute exact +0.0 distance and tardiness, and a +0.0
  // addition never changes a non-negative accumulator — so summing only
  // the non-empty routes (in index order) is bitwise identical to summing
  // all of them.  The running sums are recorded as prefix arrays so
  // MoveEngine::evaluate can seed its total at the first modified route
  // instead of replaying the whole chain.
  active_routes_.clear();
  active_rank_.clear();
  prefix_dist_.clear();
  prefix_tard_.clear();
  active_dist_.clear();
  active_tard_.clear();
  prefix_dist_.push_back(0.0);
  prefix_tard_.push_back(0.0);
  objectives_ = Objectives{};
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    active_rank_.push_back(static_cast<int>(active_routes_.size()));
    if (routes_[r].empty()) continue;
    active_routes_.push_back(static_cast<int>(r));
    objectives_.distance += stats_[r].distance;
    objectives_.tardiness += stats_[r].tardiness;
    ++objectives_.vehicles;
    prefix_dist_.push_back(objectives_.distance);
    prefix_tard_.push_back(objectives_.tardiness);
    active_dist_.push_back(stats_[r].distance);
    active_tard_.push_back(stats_[r].tardiness);
  }
  active_rank_.push_back(static_cast<int>(active_routes_.size()));
}

void Solution::rebuild_index() {
  std::fill(visits_.begin(), visits_.end(), Visit{});
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    const auto& route = routes_[r];
    const std::size_t len = route.size();
    for (std::size_t p = 0; p < len; ++p) {
      visits_[static_cast<std::size_t>(route[p])] =
          Visit{static_cast<std::int32_t>(r), static_cast<std::int32_t>(p),
                p > 0 ? route[p - 1] : 0, p + 1 < len ? route[p + 1] : 0};
    }
  }
}

int Solution::vehicles_used() const noexcept {
  int used = 0;
  for (const auto& r : routes_) {
    if (!r.empty()) ++used;
  }
  return used;
}

double Solution::capacity_violation() const noexcept {
  double v = 0.0;
  for (const auto& st : stats_) {
    v += std::max(st.load - inst_->capacity(), 0.0);
  }
  return v;
}

std::vector<int> Solution::to_permutation() const {
  std::vector<int> perm;
  perm.reserve(static_cast<std::size_t>(inst_->num_customers() +
                                        inst_->max_vehicles() + 1));
  perm.push_back(0);
  int unused = 0;
  for (const auto& route : routes_) {
    if (route.empty()) {
      ++unused;
      continue;
    }
    for (int c : route) perm.push_back(c);
    perm.push_back(0);
  }
  for (int i = 0; i < unused; ++i) perm.push_back(0);
  return perm;
}

std::uint64_t Solution::hash() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  auto mix = [&h](int v) {
    auto u = static_cast<std::uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  };
  mix(0);
  for (const auto& route : routes_) {
    if (route.empty()) continue;
    for (int c : route) mix(c);
    mix(0);
  }
  return h;
}

void Solution::validate() const {
  std::vector<int> seen(static_cast<std::size_t>(inst_->num_sites()), 0);
  for (const auto& route : routes_) {
    for (int c : route) {
      if (c <= 0 || c > inst_->num_customers()) {
        throw std::logic_error("Solution: customer index out of range");
      }
      ++seen[static_cast<std::size_t>(c)];
    }
  }
  char msg[96];
  for (int c = 1; c <= inst_->num_customers(); ++c) {
    const int count = seen[static_cast<std::size_t>(c)];
    if (count != 1) {
      std::snprintf(msg, sizeof(msg),
                    "Solution: customer %d appears %d times", c, count);
      throw std::logic_error(msg);
    }
  }
}

}  // namespace tsmo
