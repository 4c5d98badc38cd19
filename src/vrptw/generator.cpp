#include "vrptw/generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace tsmo {

namespace {

struct ClassParams {
  double service_time;
  double tight_width_lo;   // tight time-window width range
  double tight_width_hi;
  double fill_fraction;    // seed-route capacity fill target
};

ClassParams class_params(SpatialClass spatial, HorizonClass horizon) {
  // Solomon conventions: clustered instances have long (90) service times,
  // random ones short (10).  Type-2 widths are an order of magnitude wider.
  const double service = spatial == SpatialClass::Clustered ? 90.0 : 10.0;
  if (horizon == HorizonClass::Short) {
    return ClassParams{service, 3.0 * service, 8.0 * service, 0.9};
  }
  return ClassParams{service, 20.0 * service, 50.0 * service, 0.9};
}

/// Customer coordinates per spatial class on a [0, side]^2 field.
std::vector<std::pair<double, double>> make_positions(int n, double side,
                                                      SpatialClass spatial,
                                                      Rng& rng) {
  std::vector<std::pair<double, double>> pos;
  pos.reserve(static_cast<std::size_t>(n));
  auto uniform_point = [&] {
    return std::pair<double, double>{rng.uniform(0.0, side),
                                     rng.uniform(0.0, side)};
  };
  const int clustered =
      spatial == SpatialClass::Clustered ? n
      : spatial == SpatialClass::Mixed   ? n / 2
                                         : 0;
  if (clustered > 0) {
    const int num_clusters = std::max(2, n / 50);
    std::vector<std::pair<double, double>> centers;
    centers.reserve(static_cast<std::size_t>(num_clusters));
    for (int k = 0; k < num_clusters; ++k) {
      centers.push_back({rng.uniform(0.1 * side, 0.9 * side),
                         rng.uniform(0.1 * side, 0.9 * side)});
    }
    const double spread = side / 25.0;
    for (int i = 0; i < clustered; ++i) {
      const auto& c =
          centers[rng.below(static_cast<std::uint64_t>(num_clusters))];
      const double x =
          std::clamp(c.first + rng.normal(0.0, spread), 0.0, side);
      const double y =
          std::clamp(c.second + rng.normal(0.0, spread), 0.0, side);
      pos.push_back({x, y});
    }
  }
  for (int i = clustered; i < n; ++i) pos.push_back(uniform_point());
  return pos;
}

}  // namespace

Instance generate_instance(const GeneratorConfig& config) {
  if (config.num_customers < 1) {
    throw std::invalid_argument("generate_instance: num_customers < 1");
  }
  if (config.tw_density < 0.0 || config.tw_density > 1.0) {
    throw std::invalid_argument(
        "generate_instance: tw_density outside [0,1]");
  }
  const int n = config.num_customers;
  const double capacity =
      config.capacity > 0.0
          ? config.capacity
          : (config.horizon == HorizonClass::Short ? 200.0 : 700.0);
  const int fleet = config.max_vehicles > 0 ? config.max_vehicles
                                            : std::max(2, n / 4);
  const ClassParams cp = class_params(config.spatial, config.horizon);

  Rng rng(config.seed);

  // Constant customer density: the classic 100-city Solomon field is
  // roughly [0,100]^2, so the side grows with sqrt(N/100).
  const double side = 100.0 * std::sqrt(static_cast<double>(n) / 100.0);
  const auto positions = make_positions(n, side, config.spatial, rng);

  std::vector<Site> sites(static_cast<std::size_t>(n) + 1);
  sites[0] = Site{side / 2.0, side / 2.0, 0.0, 0.0, 0.0, 0.0};
  for (int i = 1; i <= n; ++i) {
    auto& s = sites[static_cast<std::size_t>(i)];
    s.x = positions[static_cast<std::size_t>(i - 1)].first;
    s.y = positions[static_cast<std::size_t>(i - 1)].second;
    s.demand = static_cast<double>(rng.uniform_int(5, 40));
    s.service = cp.service_time;
  }

  // --- Seed routes: angular sweep around the depot, cut by capacity. ---
  // Their arrival times anchor the time windows, guaranteeing that at
  // least one zero-tardiness solution exists.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 1);
  const double cx = sites[0].x, cy = sites[0].y;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& sa = sites[static_cast<std::size_t>(a)];
    const auto& sb = sites[static_cast<std::size_t>(b)];
    return std::atan2(sa.y - cy, sa.x - cx) <
           std::atan2(sb.y - cy, sb.x - cx);
  });

  auto dist = [&](int i, int j) {
    const auto& a = sites[static_cast<std::size_t>(i)];
    const auto& b = sites[static_cast<std::size_t>(j)];
    return std::hypot(a.x - b.x, a.y - b.y);
  };

  std::vector<double> arrival(static_cast<std::size_t>(n) + 1, 0.0);
  double max_completion = 0.0;
  {
    double load = 0.0, time = 0.0;
    int prev = 0;
    const double fill_target = cp.fill_fraction * capacity;
    for (int c : order) {
      const auto& s = sites[static_cast<std::size_t>(c)];
      if (load + s.demand > fill_target) {
        max_completion = std::max(max_completion, time + dist(prev, 0));
        load = 0.0;
        time = 0.0;
        prev = 0;
      }
      const double arr = time + dist(prev, c);
      arrival[static_cast<std::size_t>(c)] = arr;
      time = arr + s.service;
      load += s.demand;
      prev = c;
    }
    max_completion = std::max(max_completion, time + dist(prev, 0));
  }

  // Horizon: generous slack over the seed schedule so type-2 searches can
  // merge routes without hitting the depot deadline.
  const double horizon_slack =
      config.horizon == HorizonClass::Short ? 1.5 : 4.0;
  const double horizon = horizon_slack * (max_completion + side);
  sites[0].due = horizon;

  for (int c = 1; c <= n; ++c) {
    auto& s = sites[static_cast<std::size_t>(c)];
    const double latest_feasible_due = horizon - dist(c, 0) - s.service;
    if (rng.chance(config.tw_density)) {
      const double width = rng.uniform(cp.tight_width_lo, cp.tight_width_hi);
      const double center = arrival[static_cast<std::size_t>(c)];
      // The window must contain the seed arrival so the seed schedule has
      // zero tardiness; split the width randomly around it.
      const double before = rng.uniform(0.0, width);
      s.ready = std::max(0.0, center - before);
      s.due = center + (width - before);
    } else {
      s.ready = 0.0;
      s.due = latest_feasible_due;
    }
    s.due = std::clamp(s.due, s.ready, latest_feasible_due);
    if (s.due < arrival[static_cast<std::size_t>(c)]) {
      // Clamping against the horizon squeezed the window past the seed
      // arrival; widen back to keep the seed schedule feasible.
      s.due = arrival[static_cast<std::size_t>(c)];
    }
  }

  std::string name = config.name;
  if (name.empty()) {
    char buf[64];
    const char* sc = config.spatial == SpatialClass::Random      ? "R"
                     : config.spatial == SpatialClass::Clustered ? "C"
                                                                 : "RC";
    std::snprintf(buf, sizeof(buf), "%s%d_%d_s%llu", sc,
                  config.horizon == HorizonClass::Short ? 1 : 2, n,
                  static_cast<unsigned long long>(config.seed));
    name = buf;
  }

  Instance inst(std::move(name), std::move(sites), fleet, capacity);
  inst.validate();
  return inst;
}

GeneratorConfig parse_instance_name(const std::string& name) {
  GeneratorConfig cfg;
  std::size_t pos = 0;
  if (name.size() >= 2 && (name[0] == 'R' || name[0] == 'r') &&
      (name[1] == 'C' || name[1] == 'c')) {
    cfg.spatial = SpatialClass::Mixed;
    pos = 2;
  } else if (!name.empty() && (name[0] == 'R' || name[0] == 'r')) {
    cfg.spatial = SpatialClass::Random;
    pos = 1;
  } else if (!name.empty() && (name[0] == 'C' || name[0] == 'c')) {
    cfg.spatial = SpatialClass::Clustered;
    pos = 1;
  } else {
    throw std::invalid_argument("parse_instance_name: bad class in " + name);
  }
  if (pos >= name.size() || (name[pos] != '1' && name[pos] != '2')) {
    throw std::invalid_argument("parse_instance_name: bad type in " + name);
  }
  cfg.horizon = name[pos] == '1' ? HorizonClass::Short : HorizonClass::Long;
  ++pos;
  if (pos >= name.size() || name[pos] != '_') {
    throw std::invalid_argument("parse_instance_name: expected '_' in " +
                                name);
  }
  ++pos;
  std::size_t used = 0;
  int hundreds = 0, ordinal = 0;
  try {
    hundreds = std::stoi(name.substr(pos), &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_instance_name: bad size in " + name);
  }
  pos += used;
  if (pos >= name.size() || name[pos] != '_') {
    throw std::invalid_argument("parse_instance_name: expected ordinal in " +
                                name);
  }
  ++pos;
  try {
    ordinal = std::stoi(name.substr(pos));
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_instance_name: bad ordinal in " +
                                name);
  }
  if (hundreds < 1 || ordinal < 1) {
    throw std::invalid_argument("parse_instance_name: nonpositive fields in " +
                                name);
  }
  if (hundreds > std::numeric_limits<int>::max() / 100) {
    throw std::invalid_argument("parse_instance_name: size too large in " +
                                name);
  }
  cfg.num_customers = 100 * hundreds;
  // Ordinal feeds the seed so R1_4_1 != R1_4_2; class/type/size mix in to
  // decorrelate same-ordinal instances across classes.
  cfg.seed = static_cast<std::uint64_t>(ordinal) * 0x9e3779b9ULL +
             static_cast<std::uint64_t>(cfg.num_customers) * 131ULL +
             (cfg.horizon == HorizonClass::Long ? 7ULL : 0ULL) +
             (cfg.spatial == SpatialClass::Clustered  ? 100003ULL
              : cfg.spatial == SpatialClass::Mixed    ? 200003ULL
                                                      : 0ULL);
  // Density cycles over {1.0, 0.75, 0.5, 0.25} like the Solomon sub-series.
  static constexpr double kDensities[4] = {1.0, 0.75, 0.5, 0.25};
  cfg.tw_density = kDensities[(ordinal - 1) % 4];
  cfg.name = name;
  return cfg;
}

Instance generate_named(const std::string& name) {
  return generate_instance(parse_instance_name(name));
}

}  // namespace tsmo
