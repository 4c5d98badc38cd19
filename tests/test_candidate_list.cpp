// Candidate-list (k-nearest-neighbor) construction checks: brute-force
// cross-validation of the pruned lists, the either-direction time-window
// reachability filter (including asymmetric windows), and determinism.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "vrptw/candidate_list.hpp"
#include "vrptw/generator.hpp"
#include "vrptw/instance.hpp"

namespace tsmo {
namespace {

// First-principles reference: all TW-compatible customers of `s`, sorted
// by (distance, index), truncated to k.
std::vector<std::int32_t> brute_force_neighbors(const Instance& inst,
                                                int s, int k) {
  std::vector<std::int32_t> cands;
  for (int c = 1; c <= inst.num_customers(); ++c) {
    if (c == s) continue;
    if (tw_reachable(inst, s, c) || tw_reachable(inst, c, s)) {
      cands.push_back(static_cast<std::int32_t>(c));
    }
  }
  std::sort(cands.begin(), cands.end(),
            [&](std::int32_t a, std::int32_t b) {
              const double da = inst.distance(s, a);
              const double db = inst.distance(s, b);
              if (da != db) return da < db;
              return a < b;
            });
  if (static_cast<int>(cands.size()) > k) {
    cands.resize(static_cast<std::size_t>(k));
  }
  return cands;
}

// Also pins the build statistics: every ordered (site, customer) pair is
// counted once, as kept or as pruned by the either-direction filter.
void expect_matches_brute_force(const char* name, int k) {
  const Instance inst = generate_named(name);
  const CandidateList list(inst, k);
  ASSERT_EQ(list.k(), k);
  ASSERT_EQ(list.num_sites(), inst.num_sites());
  std::uint64_t kept = 0, pruned = 0;
  for (int s = 0; s < inst.num_sites(); ++s) {
    const auto got = list.neighbors(s);
    const auto want = brute_force_neighbors(inst, s, k);
    ASSERT_EQ(got.size(), want.size()) << name << " k=" << k << " site " << s;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << name << " k=" << k << " site " << s
                                 << " rank " << i;
    }
    for (int c = 1; c <= inst.num_customers(); ++c) {
      if (c == s) continue;
      if (tw_reachable(inst, s, c) || tw_reachable(inst, c, s)) {
        ++kept;
      } else {
        ++pruned;
      }
    }
  }
  EXPECT_EQ(list.pairs_kept(), kept) << name << " k=" << k;
  EXPECT_EQ(list.pairs_tw_pruned(), pruned) << name << " k=" << k;
}

TEST(CandidateList, MatchesBruteForceOnGeneratedInstances) {
  for (const char* name : {"R1_1_1", "C1_1_1", "RC1_1_2", "R2_1_1"}) {
    for (const int k : {1, 5, 16}) expect_matches_brute_force(name, k);
  }
  // The six 1000-customer classes at the pruned benchmark's k.
  for (const char* name : {"R1_10_1", "R2_10_1", "C1_10_1", "C2_10_1",
                           "RC1_10_1", "RC2_10_1"}) {
    expect_matches_brute_force(name, 16);
  }
}

TEST(CandidateList, NeighborsAreCustomersOnlyAndNeverSelf) {
  const Instance inst = generate_named("C1_1_1");
  const CandidateList list(inst, 10);
  for (int s = 0; s < inst.num_sites(); ++s) {
    for (const std::int32_t c : list.neighbors(s)) {
      EXPECT_GE(c, 1);
      EXPECT_LE(c, inst.num_customers());
      EXPECT_NE(c, s);
    }
  }
}

// Windows can be reachable in one direction only; the filter must keep the
// pair when EITHER direction works and drop it only when both fail.
TEST(CandidateList, TimeWindowFilterIsEitherDirection) {
  // c1 closes early (due 10) but opens immediately; c2 opens late (ready
  // 50).  c1 -> c2 is reachable (0 + 0 + 1 <= 100); c2 -> c1 is not
  // (50 + 0 + 1 > 10).  The pair survives on the forward direction alone.
  //
  // c3 and c4 both open at 95, close at 96, and sit ~141 apart: neither
  // direction is reachable, so the pair is pruned outright.
  std::vector<Site> sites = {
      {0, 0, 0, 0, 100000, 0},   // depot
      {0, 0, 1, 0, 10, 0},       // c1
      {1, 0, 1, 50, 100, 0},     // c2
      {100, 0, 1, 95, 96, 0},    // c3
      {0, 100, 1, 95, 96, 0},    // c4
  };
  const Instance inst("asym", std::move(sites), 4, 100.0);

  EXPECT_TRUE(tw_reachable(inst, 1, 2));
  EXPECT_FALSE(tw_reachable(inst, 2, 1));
  EXPECT_FALSE(tw_reachable(inst, 3, 4));
  EXPECT_FALSE(tw_reachable(inst, 4, 3));

  const CandidateList list(inst, 4);
  const auto has = [&](int s, std::int32_t c) {
    const auto n = list.neighbors(s);
    return std::find(n.begin(), n.end(), c) != n.end();
  };
  // The asymmetric pair is kept from BOTH endpoints' lists (the list is
  // about move endpoints, not travel direction).
  EXPECT_TRUE(has(1, 2));
  EXPECT_TRUE(has(2, 1));
  // The mutually unreachable pair is dropped from both.
  EXPECT_FALSE(has(3, 4));
  EXPECT_FALSE(has(4, 3));
  EXPECT_GT(list.pairs_tw_pruned(), 0u);
  EXPECT_GT(list.pairs_kept(), 0u);
}

TEST(CandidateList, ListsAreSortedByDistanceThenIndex) {
  const Instance inst = generate_named("R1_1_1");
  const CandidateList list(inst, 12);
  for (int s = 0; s < inst.num_sites(); ++s) {
    const auto n = list.neighbors(s);
    for (std::size_t i = 1; i < n.size(); ++i) {
      const double prev = inst.distance(s, n[i - 1]);
      const double cur = inst.distance(s, n[i]);
      ASSERT_TRUE(prev < cur || (prev == cur && n[i - 1] < n[i]))
          << "site " << s << " rank " << i;
    }
  }
}

// The list is a pure function of (instance, k): two builds are identical.
TEST(CandidateList, ConstructionIsDeterministic) {
  const Instance inst = generate_named("RC1_1_1");
  const CandidateList a(inst, 8);
  const CandidateList b(inst, 8);
  ASSERT_EQ(a.pairs_kept(), b.pairs_kept());
  ASSERT_EQ(a.pairs_tw_pruned(), b.pairs_tw_pruned());
  for (int s = 0; s < inst.num_sites(); ++s) {
    const auto na = a.neighbors(s);
    const auto nb = b.neighbors(s);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) ASSERT_EQ(na[i], nb[i]);
  }
}

TEST(CandidateList, FactoryReturnsNullForNonPositiveK) {
  const Instance inst = testing::tiny_instance();
  EXPECT_EQ(make_candidate_list(inst, 0), nullptr);
  EXPECT_EQ(make_candidate_list(inst, -3), nullptr);
  const auto list = make_candidate_list(inst, 2);
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->k(), 2);
}

TEST(CandidateList, KLargerThanCustomerCountKeepsAllCompatiblePairs) {
  const Instance inst = testing::tiny_instance();
  const CandidateList list(inst, 100);
  for (int s = 0; s < inst.num_sites(); ++s) {
    EXPECT_EQ(list.neighbors(s).size(),
              brute_force_neighbors(inst, s, 100).size());
  }
}

}  // namespace
}  // namespace tsmo
