#include "parallel/worker_team.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "construct/i1_insertion.hpp"
#include "util/rng.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

class WorkerTeamTest : public ::testing::Test {
 protected:
  WorkerTeamTest() : inst_(generate_named("R1_1_1")) {}

  std::shared_ptr<const Solution> base() {
    Rng rng(3);
    return std::make_shared<const Solution>(
        construct_i1_random(inst_, rng));
  }

  Instance inst_;
};

TEST_F(WorkerTeamTest, RoundTripsOneRequest) {
  WorkerTeam team(inst_, 2, 7);
  team.submit(GenRequest{base(), 25, 99});
  const auto result = team.collect();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->ticket, 99u);
  EXPECT_EQ(result->candidates.size(), 25u);
  EXPECT_GE(result->worker_id, 0);
  EXPECT_LT(result->worker_id, 2);
}

TEST_F(WorkerTeamTest, AllRequestsAnswered) {
  WorkerTeam team(inst_, 3, 7);
  const auto b = base();
  std::set<std::uint64_t> tickets;
  for (std::uint64_t t = 1; t <= 12; ++t) {
    team.submit(GenRequest{b, 10, t});
  }
  std::size_t total = 0;
  for (int i = 0; i < 12; ++i) {
    const auto r = team.collect();
    ASSERT_TRUE(r.has_value());
    tickets.insert(r->ticket);
    total += r->candidates.size();
  }
  EXPECT_EQ(tickets.size(), 12u);
  EXPECT_EQ(total, 120u);
}

TEST_F(WorkerTeamTest, CandidatesAreValidAgainstBase) {
  WorkerTeam team(inst_, 2, 7);
  const auto b = base();
  team.submit(GenRequest{b, 30, 1});
  const auto result = team.collect();
  ASSERT_TRUE(result.has_value());
  MoveEngine engine(inst_);
  for (const Candidate& c : result->candidates) {
    EXPECT_EQ(c.base.get(), b.get());
    EXPECT_TRUE(engine.applicable(*b, c.move));
    const Solution s = materialize(engine, c);
    EXPECT_EQ(s.objectives(), c.obj);
  }
}

TEST_F(WorkerTeamTest, TryCollectNonBlocking) {
  WorkerTeam team(inst_, 1, 7);
  EXPECT_FALSE(team.try_collect().has_value());
  team.submit(GenRequest{base(), 5, 1});
  // Eventually the result must appear.
  std::optional<GenResult> r;
  for (int spin = 0; spin < 1000 && !r; ++spin) {
    r = team.collect_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(r.has_value());
}

TEST_F(WorkerTeamTest, CleanShutdownWithPendingRequests) {
  const auto b = base();
  {
    WorkerTeam team(inst_, 2, 7);
    for (int i = 0; i < 20; ++i) team.submit(GenRequest{b, 50, 1});
    // Destructor must join without deadlock even with work outstanding.
  }
  SUCCEED();
}

TEST_F(WorkerTeamTest, AtLeastOneWorker) {
  WorkerTeam team(inst_, 0, 7);
  EXPECT_EQ(team.num_workers(), 1);
}

TEST_F(WorkerTeamTest, SeededRequestsIndependentOfTeamSize) {
  // A seeded request is a pure function of (seed, base, count): two teams
  // of different sizes must return identical candidates for it.  This is
  // the primitive the deterministic engine modes are built on.
  const auto b = base();
  auto run_with = [&](int workers) {
    WorkerTeam team(inst_, workers, /*seed=*/1234 + workers);
    std::vector<GenResult> results;
    for (std::uint64_t t = 1; t <= 6; ++t) {
      team.submit(GenRequest{b, 15, t, 0xabc0ffee00ULL + t, true});
    }
    for (int i = 0; i < 6; ++i) {
      auto r = team.collect();
      EXPECT_TRUE(r.has_value());
      if (r) results.push_back(std::move(*r));
    }
    std::sort(results.begin(), results.end(),
              [](const GenResult& x, const GenResult& y) {
                return x.ticket < y.ticket;
              });
    return results;
  };
  // Deterministic mode's SeededTeam over the threads: chunks seeded at
  // dispatch reach the master in ticket order, at the barrier and at the
  // wait alike.
  auto seeded_with = [&](int threads) {
    WorkerTeam workers(inst_, threads, /*seed=*/1234 + threads);
    SeededTeam team(workers, 3, 0xabc0ffee00ULL);
    std::vector<GenResult> results;
    const Team::Take take = [&](GenResult& r) {
      results.push_back(std::move(r));
    };
    for (int c = 0; c < 6; ++c) team.dispatch(c % 3, b, 15);
    team.barrier(6, take);
    for (int c = 0; c < 3; ++c) team.dispatch(c, b, 15);
    team.wait([] { return true; }, take);
    EXPECT_EQ(team.last_ticket(), 9u);
    for (std::size_t r = 0; r < results.size(); ++r) {
      EXPECT_EQ(results[r].ticket, r + 1) << threads << " threads";
    }
    return results;
  };
  const auto expect_same = [](const std::vector<GenResult>& x,
                              const std::vector<GenResult>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t r = 0; r < x.size(); ++r) {
      ASSERT_EQ(x[r].candidates.size(), y[r].candidates.size());
      for (std::size_t c = 0; c < x[r].candidates.size(); ++c) {
        EXPECT_EQ(x[r].candidates[c].move, y[r].candidates[c].move);
        EXPECT_EQ(x[r].candidates[c].obj, y[r].candidates[c].obj);
      }
    }
  };
  expect_same(run_with(1), run_with(4));
  const auto seeded = seeded_with(1);
  EXPECT_EQ(seeded.size(), 9u);
  expect_same(seeded, seeded_with(2));
  expect_same(seeded, seeded_with(4));
}

TEST_F(WorkerTeamTest, ChurnConcurrentSubmittersShutdownMidFlight) {
  // Team churn designed for the TSan job: concurrent submitters racing a
  // collector, teams destroyed with work still in flight, repeatedly.
  const auto b = base();
  for (int round = 0; round < 6; ++round) {
    std::atomic<int> submitted{0};
    int collected = 0;
    {
      WorkerTeam team(inst_, 3, static_cast<std::uint64_t>(7 + round));
      std::vector<std::thread> submitters;
      for (int s = 0; s < 2; ++s) {
        submitters.emplace_back([&, s] {
          Rng rng(static_cast<std::uint64_t>(round * 10 + s));
          for (std::uint64_t t = 1; t <= 10; ++t) {
            team.submit(GenRequest{b, 12, t});
            submitted.fetch_add(1, std::memory_order_relaxed);
            if (rng.below(3) == 0) {
              std::this_thread::sleep_for(
                  std::chrono::microseconds(rng.below(200)));
            }
          }
        });
      }
      // Collect roughly half the traffic, leaving the rest in flight when
      // the team is torn down.
      for (int i = 0; i < 10; ++i) {
        if (team.collect_for(std::chrono::milliseconds(20))) ++collected;
      }
      for (std::thread& t : submitters) t.join();
    }  // destructor joins workers with requests still queued
    EXPECT_EQ(submitted.load(), 20);
    EXPECT_LE(collected, 20);
  }
}

}  // namespace
}  // namespace tsmo
