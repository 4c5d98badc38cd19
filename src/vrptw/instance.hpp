#pragma once

// CVRPTW problem instance (§II of the paper).
//
// Sites S = {0..N}: index 0 is the depot, customers are 1..N.  Travel costs
// are Euclidean distances held in a dense matrix T.  The fleet is
// homogeneous: every vehicle has capacity m; at most R vehicles exist.
// Next to T the instance keeps the paper's local feasibility test for
// every junction (§II.B) as an n×n bitmap, built in the same row-wise
// pass that fills T.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/flat_matrix.hpp"

namespace tsmo {

/// One site: the depot (index 0) or a customer.
struct Site {
  double x = 0.0;
  double y = 0.0;
  double demand = 0.0;   ///< d_i (0 for the depot)
  double ready = 0.0;    ///< a_i: earliest service start
  double due = 0.0;      ///< b_i: latest arrival without tardiness
  double service = 0.0;  ///< c_i: service duration
};

/// Structure-of-arrays mirror of the site table: one contiguous array per
/// field, indexed by site.  The pricing hot loop (IncrementalRouteEval)
/// reads only ready/due/service per visit; the SoA layout turns those reads
/// into dense streams instead of strided Site loads, which is what lets the
/// batch pricing pass stay in cache (DESIGN.md §11).
struct SiteSoA {
  std::vector<double> x, y, demand, ready, due, service;
};

class Instance {
 public:
  /// `sites[0]` must be the depot.  Throws std::invalid_argument on
  /// structurally invalid input (no depot, nonpositive capacity/fleet).
  Instance(std::string name, std::vector<Site> sites, int max_vehicles,
           double capacity);

  const std::string& name() const noexcept { return name_; }

  /// N: number of customers (excludes the depot).
  int num_customers() const noexcept {
    return static_cast<int>(sites_.size()) - 1;
  }

  /// Total number of sites, N + 1.
  int num_sites() const noexcept { return static_cast<int>(sites_.size()); }

  /// R: size of the available fleet.
  int max_vehicles() const noexcept { return max_vehicles_; }

  /// m: homogeneous vehicle capacity.
  double capacity() const noexcept { return capacity_; }

  const Site& site(int i) const noexcept {
    return sites_[static_cast<std::size_t>(i)];
  }
  const Site& depot() const noexcept { return sites_[0]; }
  const std::vector<Site>& sites() const noexcept { return sites_; }

  /// SoA mirror of sites(), built once at construction; field i of entry j
  /// is bitwise equal to the corresponding site(j) field.
  const SiteSoA& soa() const noexcept { return soa_; }

  /// t_{i,j}: Euclidean travel cost (== travel time; unit speed).
  double distance(int i, int j) const noexcept {
    return dist_(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
  }

  /// Row i of T, one contiguous span over all sites: distance_row(i)[j]
  /// is distance(i, j).  T is symmetric bit for bit (the constructor
  /// computes each pair once and stores it both ways), so the row is
  /// also column i: distance_row(i)[j] == distance(j, i) exactly.  Whole-
  /// row passes (I1's insertion columns, the candidate lists) read
  /// t(j, i) from here instead of striding down a column.
  std::span<const double> distance_row(int i) const noexcept {
    return dist_.row(static_cast<std::size_t>(i));
  }

  /// The local feasibility test of the junction a -> b (§II.B): leaving a
  /// at its earliest departure still reaches b by its due date,
  /// a_a + c_a + t_{a,b} <= b_b (indices may be 0 == depot).  Read from a
  /// bitmap the constructor fills, one 64-bit word per 64 sites of a row
  /// (125 KB at 1000 customers, against 8 MB for T); each bit is that
  /// sum, in that order, so it equals tw_reachable(a, b)
  /// (candidate_list.hpp) exactly.  The Local screen and the pruned
  /// samplers read junctions only from here.
  bool junction_ok(int a, int b) const noexcept {
    const std::uint64_t word =
        junction_[static_cast<std::size_t>(a) * junction_words_ +
                  (static_cast<std::size_t>(b) >> 6)];
    return (word >> (static_cast<unsigned>(b) & 63U)) & 1U;
  }

  /// Sum of all customer demands; a lower bound on fleet usage is
  /// ceil(total_demand / capacity).
  double total_demand() const noexcept { return total_demand_; }

  /// Smallest number of vehicles that can carry the total demand.
  /// total_demand_ is an accumulated sum, so when the true total is an
  /// exact multiple of the capacity the quotient may land a few ulp above
  /// the integer and a bare ceil would report one spurious vehicle; a
  /// quotient within relative epsilon of an integer snaps to it.
  int min_vehicles_by_capacity() const noexcept {
    const double q = total_demand_ / capacity_;
    const double r = std::round(q);
    if (std::abs(q - r) <= 1e-9 * std::max(1.0, std::abs(r))) {
      return static_cast<int>(r);
    }
    return static_cast<int>(std::ceil(q));
  }

  /// Planning horizon: the depot's due date.
  double horizon() const noexcept { return sites_[0].due; }

  /// Checks instance plausibility (every number finite, windows ordered,
  /// demands within capacity, fleet can carry total demand); throws
  /// std::invalid_argument with a diagnostic message on violation.
  void validate() const;

 private:
  std::string name_;
  std::vector<Site> sites_;
  int max_vehicles_ = 0;
  double capacity_ = 0.0;
  double total_demand_ = 0.0;
  FlatMatrix<double> dist_;
  std::vector<std::uint64_t> junction_;  // row-major, junction_words_ a row
  std::size_t junction_words_ = 0;
  SiteSoA soa_;
};

}  // namespace tsmo
