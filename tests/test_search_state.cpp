#include "core/search_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

TsmoParams small_params() {
  TsmoParams p;
  p.max_evaluations = 5000;
  p.neighborhood_size = 40;
  p.restart_after = 5;
  p.seed = 11;
  return p;
}

class SearchStateTest : public ::testing::Test {
 protected:
  SearchStateTest() : inst_(generate_named("R1_1_1")) {}
  Instance inst_;
};

TEST_F(SearchStateTest, InitializeSeedsMemories) {
  SearchState st(inst_, small_params(), Rng(1));
  EXPECT_FALSE(st.initialized());
  st.initialize();
  EXPECT_TRUE(st.initialized());
  EXPECT_EQ(st.archive().size(), 1u);
  EXPECT_EQ(st.evaluations(), 1);
  EXPECT_EQ(st.iterations(), 0);
  EXPECT_NO_THROW(st.current()->validate());
}

TEST_F(SearchStateTest, GenerateCandidatesChargesEvaluations) {
  SearchState st(inst_, small_params(), Rng(1));
  st.initialize();
  const auto c = st.generate_candidates(30);
  EXPECT_EQ(c.size(), 30u);
  EXPECT_EQ(st.evaluations(), 31);
}

TEST_F(SearchStateTest, StepSelectsFromCandidates) {
  SearchState st(inst_, small_params(), Rng(1));
  st.initialize();
  const auto candidates = st.generate_candidates(40);
  const auto out = st.step_with_candidates(candidates);
  EXPECT_EQ(st.iterations(), 1);
  if (out.selected) {
    EXPECT_FALSE(out.restarted);
    EXPECT_EQ(st.current()->objectives(),
              candidates[*out.selected].obj);
    EXPECT_GT(st.tabu().size(), 0u);
  } else {
    EXPECT_TRUE(out.restarted);
  }
}

TEST_F(SearchStateTest, EmptyCandidateSetForcesRestart) {
  SearchState st(inst_, small_params(), Rng(1));
  st.initialize();
  const auto out = st.step_with_candidates({});
  EXPECT_TRUE(out.restarted);
  EXPECT_FALSE(out.selected.has_value());
  EXPECT_EQ(st.restarts(), 1);
  EXPECT_NO_THROW(st.current()->validate());
}

TEST_F(SearchStateTest, RestartWithEmptyMemoriesConstructsFresh) {
  TsmoParams p = small_params();
  p.archive_capacity = 2;
  SearchState st(inst_, p, Rng(2));
  st.initialize();
  // Drain the archive indirectly: force restarts repeatedly; even when
  // M_nondom is empty the state must produce a valid current.
  for (int i = 0; i < 10; ++i) {
    st.step_with_candidates({});
    EXPECT_NO_THROW(st.current()->validate());
  }
  EXPECT_EQ(st.restarts(), 10);
}

TEST_F(SearchStateTest, StagnationTriggersRestartAfterThreshold) {
  TsmoParams p = small_params();
  p.restart_after = 3;
  SearchState st(inst_, p, Rng(3));
  st.initialize();
  std::int64_t restarts_before = st.restarts();
  bool saw_stagnation_restart = false;
  for (int i = 0; i < 60; ++i) {
    const auto cands = st.generate_candidates(10);
    const auto out = st.step_with_candidates(cands);
    if (out.restarted && !cands.empty()) saw_stagnation_restart = true;
  }
  // With a tight threshold some restart must have occurred.
  EXPECT_TRUE(saw_stagnation_restart || st.restarts() > restarts_before);
}

TEST_F(SearchStateTest, StagnationFlagSetAfterUnimprovingIterations) {
  TsmoParams p = small_params();
  p.restart_after = 2;
  SearchState st(inst_, p, Rng(4));
  st.initialize();
  // Empty candidate steps never improve the archive (restart picks come
  // from the archive itself and are duplicates).
  st.step_with_candidates({});
  st.step_with_candidates({});
  EXPECT_GE(st.iterations_since_improvement(), 2);
  EXPECT_TRUE(st.stagnated());
}

TEST_F(SearchStateTest, ArchiveGrowsDuringSearch) {
  SearchState st(inst_, small_params(), Rng(5));
  st.initialize();
  for (int i = 0; i < 40; ++i) {
    st.step_with_candidates(st.generate_candidates(40));
  }
  EXPECT_GT(st.archive().size(), 1u);
  // All archive members mutually non-dominated.
  const auto& entries = st.archive().entries();
  for (const auto& a : entries) {
    for (const auto& b : entries) {
      if (&a == &b) continue;
      EXPECT_FALSE(dominates(a.obj, b.obj));
    }
  }
}

TEST_F(SearchStateTest, TabuSelectionAvoidsRecentMoves) {
  // With aspiration off and a huge tenure, accepted moves' inverse
  // features must not be re-selectable immediately.
  TsmoParams p = small_params();
  p.tabu_tenure = 1000;
  SearchState st(inst_, p, Rng(6));
  st.initialize();
  for (int i = 0; i < 20; ++i) {
    const auto cands = st.generate_candidates(30);
    const auto out = st.step_with_candidates(cands);
    if (out.selected) {
      EXPECT_FALSE(st.tabu().is_tabu(cands[*out.selected].creates) &&
                   !p.use_aspiration)
          << "selected a tabu candidate without aspiration";
    }
  }
}

TEST_F(SearchStateTest, ReceiveStoresIntoNondomMemory) {
  SearchState st(inst_, small_params(), Rng(7));
  st.initialize();
  SearchState other(inst_, small_params(), Rng(8));
  other.initialize();
  const std::size_t before = st.nondom().size();
  const bool stored = st.receive(other.current());
  if (stored) {
    EXPECT_EQ(st.nondom().size(), before + 1);
  } else {
    EXPECT_EQ(st.nondom().size(), before);
  }
  // Receiving the identical solution again must be rejected.
  if (stored) {
    EXPECT_FALSE(st.receive(other.current()));
  }
}

/// Routes and objectives of `a` and `b` are bitwise equal.
void expect_same_solution(const Solution& a, const Solution& b) {
  ASSERT_EQ(a.num_routes(), b.num_routes());
  for (int r = 0; r < a.num_routes(); ++r) {
    EXPECT_EQ(a.route(r), b.route(r)) << "route " << r;
  }
  const Objectives& x = a.objectives();
  const Objectives& y = b.objectives();
  EXPECT_EQ(std::memcmp(&x.distance, &y.distance, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&x.tardiness, &y.tardiness, sizeof(double)), 0);
  EXPECT_EQ(x.vehicles, y.vehicles);
}

TEST_F(SearchStateTest, ArchiveStoresTheCurrentHandle) {
  SearchState st(inst_, small_params(), Rng(12));
  st.initialize();
  EXPECT_EQ(st.archive().entries().back().value, st.current());
  bool checked = false;
  for (int i = 0; i < 40 && !checked; ++i) {
    const auto out = st.step_with_candidates(st.generate_candidates(30));
    if (out.selected && out.archive_improved) {
      // Newest member: the accepted solution itself, not a copy.
      EXPECT_EQ(st.archive().entries().back().value.get(),
                st.current().get());
      checked = true;
    }
  }
  EXPECT_TRUE(checked) << "no accepted step improved the archive";
}

TEST_F(SearchStateTest, NondomEntriesHoldTheirCandidateBase) {
  SearchState st(inst_, small_params(), Rng(13));
  st.initialize();
  // Step until M_nondom first fills: every entry then comes from that
  // step's candidate set.
  std::vector<Candidate> candidates;
  for (int i = 0; i < 40 && st.nondom().empty(); ++i) {
    candidates = st.generate_candidates(40);
    st.step_with_candidates(candidates);
  }
  ASSERT_FALSE(st.nondom().empty());
  for (const auto& e : st.nondom().entries()) {
    // The base is the shared handle the candidates were generated from.
    EXPECT_EQ(e.value.base.get(), candidates.front().base.get());
    ASSERT_TRUE(e.value.move.has_value());
    bool from_candidate = false;
    for (const Candidate& c : candidates) {
      from_candidate |= c.move == *e.value.move && c.obj == e.obj;
    }
    EXPECT_TRUE(from_candidate);
  }
}

TEST_F(SearchStateTest, RestartBuildsLazyEntryLikeMaterialize) {
  TsmoParams p = small_params();
  p.restart_after = 1000;    // only the forced restarts below
  p.nondom_capacity = 1000;  // keep old entries around
  SearchState st(inst_, p, Rng(14));
  st.initialize();
  // Every candidate generated, with the step that generated it.
  std::vector<std::pair<int, Candidate>> generated;
  const int steps = 40;
  for (int i = 0; i < steps; ++i) {
    const auto candidates = st.generate_candidates(30);
    for (const Candidate& c : candidates) generated.emplace_back(i, c);
    st.step_with_candidates(candidates);
  }
  const auto same_entry = [](const LazySolution& a, const LazySolution& b) {
    return a.base == b.base && a.move == b.move;
  };
  int taken = 0;
  int oldest_age = 0;
  // Empty candidate sets force restarts; each draws from M_nondom or
  // M_archive and adds nothing new to M_nondom.
  for (int i = 0; i < 2000 && !st.nondom().empty(); ++i) {
    const auto before = st.nondom().entries();
    st.step_with_candidates({});
    if (st.nondom().size() == before.size()) continue;  // archive pick
    ASSERT_EQ(st.nondom().size() + 1, before.size());
    // The consumed entry is the one no longer present.
    const auto consumed = std::find_if(
        before.begin(), before.end(), [&](const auto& e) {
          return std::none_of(
              st.nondom().entries().begin(), st.nondom().entries().end(),
              [&](const auto& f) { return same_entry(e.value, f.value); });
        });
    ASSERT_NE(consumed, before.end());
    const auto origin = std::find_if(
        generated.begin(), generated.end(), [&](const auto& g) {
          return same_entry(consumed->value,
                            LazySolution{g.second.base, g.second.move});
        });
    ASSERT_NE(origin, generated.end());
    const Candidate& c = origin->second;
    expect_same_solution(*st.current(), materialize(st.engine(), c));
    EXPECT_EQ(st.current()->objectives(), c.obj);
    EXPECT_NO_THROW(st.current()->validate());
    oldest_age = std::max(oldest_age, steps - origin->first);
    ++taken;
  }
  EXPECT_GT(taken, 0);
  // Some checked entry had a base that stopped being current long ago.
  EXPECT_GE(oldest_age, 10);
}

TEST_F(SearchStateTest, ReceiveStoresTheSendersHandle) {
  SearchState st(inst_, small_params(), Rng(15));
  st.initialize();
  ASSERT_TRUE(st.nondom().empty());
  // Two candidate solutions where one dominates the other.
  SearchState other(inst_, small_params(), Rng(16));
  other.initialize();
  const auto candidates = other.generate_candidates(40);
  const Candidate* better = nullptr;
  const Candidate* worse = nullptr;
  for (const Candidate& a : candidates) {
    for (const Candidate& b : candidates) {
      if (!better && dominates(a.obj, b.obj)) {
        better = &a;
        worse = &b;
      }
    }
  }
  ASSERT_NE(better, nullptr) << "no dominated pair among the candidates";
  const auto sent = std::make_shared<const Solution>(
      materialize(other.engine(), *better));
  ASSERT_TRUE(st.receive(sent));
  ASSERT_EQ(st.nondom().size(), 1u);
  EXPECT_EQ(st.nondom().entries().front().value.base.get(), sent.get());
  EXPECT_FALSE(st.nondom().entries().front().value.move.has_value());
  // Duplicate and dominated solutions are still rejected.
  EXPECT_FALSE(st.receive(sent));
  EXPECT_FALSE(st.receive(std::make_shared<const Solution>(*sent)));
  EXPECT_FALSE(st.receive(std::make_shared<const Solution>(
      materialize(other.engine(), *worse))));
  EXPECT_EQ(st.nondom().size(), 1u);
}

TEST_F(SearchStateTest, BudgetExhaustionFlag) {
  TsmoParams p = small_params();
  p.max_evaluations = 50;
  SearchState st(inst_, p, Rng(9));
  st.initialize();
  EXPECT_FALSE(st.budget_exhausted());
  st.generate_candidates(49);
  EXPECT_TRUE(st.budget_exhausted());
}

TEST_F(SearchStateTest, ChargeEvaluationsCountsExternalWork) {
  TsmoParams p = small_params();
  p.max_evaluations = 100;
  SearchState st(inst_, p, Rng(10));
  st.initialize();
  st.charge_evaluations(99);
  EXPECT_TRUE(st.budget_exhausted());
}

TEST_F(SearchStateTest, CurrentSurvivesStepAsSharedHandle) {
  SearchState st(inst_, small_params(), Rng(11));
  st.initialize();
  const auto held = st.current();
  st.step_with_candidates(st.generate_candidates(30));
  // The old current must still be intact (candidates may reference it).
  EXPECT_NO_THROW(held->validate());
}

}  // namespace
}  // namespace tsmo
