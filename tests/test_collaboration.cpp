// Unit tests of the §III.E collaboration rule (parallel/collaboration.hpp):
// the parameters each searcher gets, its communication list, and when and
// to whom it sends.  No threads start here.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "parallel/collaboration.hpp"

namespace tsmo {
namespace {

TsmoParams base_params() {
  TsmoParams p;
  p.max_evaluations = 5000;
  p.neighborhood_size = 80;
  p.tabu_tenure = 12;
  p.archive_capacity = 30;
  p.nondom_capacity = 40;
  p.restart_after = 10;
  p.seed = 2024;
  return p;
}

/// The fields §III.E perturbs, plus the budget.
std::vector<std::int64_t> searched_fields(const TsmoParams& p) {
  return {p.max_evaluations, p.neighborhood_size, p.tabu_tenure,
          p.archive_capacity, p.nondom_capacity, p.restart_after};
}

/// Ends the initial phase, then returns the targets of the next `sends`
/// archive improvements.
std::vector<int> send_sequence(Collaborator c, std::size_t sends) {
  EXPECT_FALSE(c.send_target(c.params().restart_after, false).has_value());
  std::vector<int> targets;
  for (std::size_t k = 0; k < sends; ++k) {
    const std::optional<int> target = c.send_target(0, true);
    if (!target) break;
    targets.push_back(*target);
  }
  return targets;
}

constexpr std::uint64_t kSalts[] = {CollExchange::salt,
                                    HybridExchange::salt};

TEST(Collaboration, SearcherZeroKeepsTheBaseParameters) {
  const TsmoParams base = base_params();
  for (std::uint64_t salt : kSalts) {
    const Collaborator c(base, 0, 4, salt);
    EXPECT_EQ(searched_fields(c.params()), searched_fields(base));
  }
}

TEST(Collaboration, OtherSearchersPerturbWithTheFullBudget) {
  const TsmoParams base = base_params();
  for (std::uint64_t salt : kSalts) {
    for (int id = 1; id < 4; ++id) {
      Rng rng(base.seed + static_cast<std::uint64_t>(id) * salt);
      const TsmoParams expected = base.perturbed(rng);
      const Collaborator c(base, id, 4, salt);
      EXPECT_EQ(searched_fields(c.params()), searched_fields(expected))
          << "id " << id;
      EXPECT_NE(searched_fields(c.params()), searched_fields(base))
          << "id " << id;
      EXPECT_EQ(c.params().max_evaluations, base.max_evaluations);
      EXPECT_NE(c.params().seed, base.seed);
    }
  }
}

TEST(Collaboration, CommunicationListIsAPermutationOfTheOthers) {
  const TsmoParams base = base_params();
  int shuffled = 0;
  for (int searchers : {2, 3, 6, 12}) {
    for (int id = 0; id < searchers; ++id) {
      std::vector<int> others;
      for (int k = 0; k < searchers; ++k) {
        if (k != id) others.push_back(k);
      }
      const std::vector<int> list = send_sequence(
          Collaborator(base, id, searchers, CollExchange::salt),
          others.size());
      std::vector<int> sorted = list;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, others) << id << " of " << searchers;
      if (list != others) ++shuffled;
    }
  }
  EXPECT_GT(shuffled, 0) << "every list kept the id order";
}

TEST(Collaboration, NoSendDuringTheInitialPhase) {
  const TsmoParams base = base_params();
  Collaborator c(base, 1, 3, CollExchange::salt);
  const int restart_after = c.params().restart_after;
  ASSERT_GT(restart_after, 1);
  for (int since = 0; since < restart_after; ++since) {
    EXPECT_FALSE(c.send_target(since, true).has_value()) << since;
  }
  // The phase ends on the first stagnation, even without an improvement.
  EXPECT_FALSE(c.send_target(restart_after, false).has_value());
  EXPECT_TRUE(c.send_target(0, true).has_value());
}

TEST(Collaboration, OneSendPerImprovementCyclingThroughTheList) {
  const TsmoParams base = base_params();
  const Collaborator fresh(base, 2, 5, HybridExchange::salt);
  const std::vector<int> list = send_sequence(fresh, 4);
  ASSERT_EQ(list.size(), 4u);
  Collaborator c = fresh;
  ASSERT_FALSE(c.send_target(c.params().restart_after, false).has_value());
  for (std::size_t k = 0; k < 3 * list.size(); ++k) {
    // A step that does not improve the archive sends nothing and keeps
    // the list as it is.
    EXPECT_FALSE(c.send_target(0, false).has_value());
    const std::optional<int> target = c.send_target(0, true);
    ASSERT_TRUE(target.has_value());
    EXPECT_EQ(*target, list[k % list.size()]) << k;
  }
}

TEST(Collaboration, SameSeedIdAndSaltSameSetUp) {
  const TsmoParams base = base_params();
  for (std::uint64_t salt : kSalts) {
    for (int id = 0; id < 6; ++id) {
      const Collaborator a(base, id, 6, salt);
      const Collaborator b(base, id, 6, salt);
      EXPECT_EQ(searched_fields(a.params()), searched_fields(b.params()));
      EXPECT_EQ(a.params().seed, b.params().seed);
      EXPECT_EQ(send_sequence(a, 5), send_sequence(b, 5));
    }
  }
  // The salt separates coll's streams from the hybrid's.
  EXPECT_NE(Collaborator(base, 1, 6, CollExchange::salt).params().seed,
            Collaborator(base, 1, 6, HybridExchange::salt).params().seed);
}

}  // namespace
}  // namespace tsmo
