#include "vrptw/instance.hpp"

#include <cmath>
#include <cstdio>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace tsmo {

namespace {

/// One word of a junction bitmap row: bit k is leave + t[k] <= due[k],
/// for k < m <= 64.  The SSE2 path tests two sites per instruction with
/// the same IEEE sum and the same ordered <= (false on NaN), so both
/// paths give the same bits.
std::uint64_t junction_word(double leave, const double* t, const double* due,
                            std::size_t m) {
  std::uint64_t word = 0;
  std::size_t k = 0;
#if defined(__SSE2__)
  const __m128d lv = _mm_set1_pd(leave);
  for (; k + 2 <= m; k += 2) {
    const __m128d sum = _mm_add_pd(lv, _mm_loadu_pd(t + k));
    const int pair = _mm_movemask_pd(_mm_cmple_pd(sum, _mm_loadu_pd(due + k)));
    word |= static_cast<std::uint64_t>(pair) << k;
  }
#endif
  for (; k < m; ++k) {
    word |= static_cast<std::uint64_t>(leave + t[k] <= due[k]) << k;
  }
  return word;
}

}  // namespace

Instance::Instance(std::string name, std::vector<Site> sites,
                   int max_vehicles, double capacity)
    : name_(std::move(name)),
      sites_(std::move(sites)),
      max_vehicles_(max_vehicles),
      capacity_(capacity) {
  if (sites_.empty()) {
    throw std::invalid_argument("Instance: needs at least the depot site");
  }
  if (max_vehicles_ <= 0) {
    throw std::invalid_argument("Instance: max_vehicles must be positive");
  }
  if (capacity_ <= 0.0) {
    throw std::invalid_argument("Instance: capacity must be positive");
  }
  const std::size_t n = sites_.size();
  total_demand_ = 0.0;
  for (std::size_t i = 1; i < n; ++i) total_demand_ += sites_[i].demand;
  soa_.x.reserve(n);
  soa_.y.reserve(n);
  soa_.demand.reserve(n);
  soa_.ready.reserve(n);
  soa_.due.reserve(n);
  soa_.service.reserve(n);
  for (const Site& s : sites_) {
    soa_.x.push_back(s.x);
    soa_.y.push_back(s.y);
    soa_.demand.push_back(s.demand);
    soa_.ready.push_back(s.ready);
    soa_.due.push_back(s.due);
    soa_.service.push_back(s.service);
  }

  // T and the junction bitmap, one row at a time.  Row i copies its lower
  // triangle from the rows already built (t_ij = t_ji bit for bit) and
  // computes the rest, one sqrt per pair; its junction bits are then
  // packed a word at a time from the finished row.
  dist_ = FlatMatrix<double>(n, n, 0.0);
  junction_words_ = (n + 63) / 64;
  junction_.assign(n * junction_words_, 0);
  const double* x = soa_.x.data();
  const double* y = soa_.y.data();
  const double* due = soa_.due.data();
  for (std::size_t i = 0; i < n; ++i) {
    double* row = &dist_(i, 0);
    for (std::size_t j = 0; j < i; ++j) row[j] = dist_(j, i);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = x[i] - x[j];
      const double dy = y[i] - y[j];
      row[j] = std::sqrt(dx * dx + dy * dy);
    }
    const double leave = soa_.ready[i] + soa_.service[i];
    std::uint64_t* bits = junction_.data() + i * junction_words_;
    for (std::size_t w = 0; w < junction_words_; ++w) {
      const std::size_t j0 = w * 64;
      bits[w] = junction_word(leave, row + j0, due + j0,
                              std::min<std::size_t>(64, n - j0));
    }
  }
}

void Instance::validate() const {
  char msg[160];
  if (!std::isfinite(capacity_)) {
    throw std::invalid_argument("Instance: capacity must be finite");
  }
  if (sites_[0].demand != 0.0) {
    throw std::invalid_argument("Instance: depot must have zero demand");
  }
  for (int i = 0; i < num_sites(); ++i) {
    const Site& s = site(i);
    // NaN fails every comparison below, so non-finite values are refused
    // before any of them.
    for (const double v : {s.x, s.y, s.demand, s.ready, s.due, s.service}) {
      if (!std::isfinite(v)) {
        std::snprintf(msg, sizeof(msg),
                      "Instance: site %d has a non-finite value", i);
        throw std::invalid_argument(msg);
      }
    }
    if (s.ready > s.due) {
      std::snprintf(msg, sizeof(msg),
                    "Instance: site %d has ready %.2f > due %.2f", i, s.ready,
                    s.due);
      throw std::invalid_argument(msg);
    }
    if (s.demand < 0.0 || s.service < 0.0) {
      std::snprintf(msg, sizeof(msg),
                    "Instance: site %d has negative demand or service", i);
      throw std::invalid_argument(msg);
    }
    if (i > 0 && s.demand > capacity_) {
      std::snprintf(msg, sizeof(msg),
                    "Instance: customer %d demand %.2f exceeds capacity %.2f",
                    i, s.demand, capacity_);
      throw std::invalid_argument(msg);
    }
  }
  if (total_demand_ > capacity_ * static_cast<double>(max_vehicles_)) {
    std::snprintf(msg, sizeof(msg),
                  "Instance: total demand %.2f exceeds fleet capacity %.2f",
                  total_demand_,
                  capacity_ * static_cast<double>(max_vehicles_));
    throw std::invalid_argument(msg);
  }
}

}  // namespace tsmo
