// Cross-implementation equivalence: the threaded and the simulated
// executions share all search components and RNG stream derivations, so in
// configurations where scheduling cannot reorder results they must produce
// *identical* fronts.  This pins the claim in DESIGN.md §4 that the DES
// substitution changes only the clock, not the algorithm.

#include <gtest/gtest.h>

#include "parallel/async_tsmo.hpp"
#include "parallel/collaboration.hpp"
#include "parallel/hybrid_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "sim/sim_tsmo.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

TsmoParams test_params(std::int64_t evals = 4000) {
  TsmoParams p;
  p.max_evaluations = evals;
  p.neighborhood_size = 60;
  p.restart_after = 20;
  p.seed = 321;
  return p;
}

TEST(CrossImplementation, ThreadedSyncMatchesSimSyncWithOneWorker) {
  // With a single worker there is exactly one result per barrier, so the
  // pool order is deterministic in both implementations: master chunk
  // first, then the worker chunk.  Same seeds -> same trajectory.
  const Instance inst = generate_named("R1_1_1");
  const TsmoParams params = test_params();
  const RunResult threaded = SyncTsmo(inst, params, 2).run();
  CostModel cost = CostModel::for_instance(inst);
  const RunResult simulated = run_sim_sync(inst, params, 2, cost);
  ASSERT_EQ(threaded.front.size(), simulated.front.size());
  for (std::size_t i = 0; i < threaded.front.size(); ++i) {
    EXPECT_EQ(threaded.front[i], simulated.front[i]) << i;
  }
  EXPECT_EQ(threaded.iterations, simulated.iterations);
  EXPECT_EQ(threaded.evaluations, simulated.evaluations);
}

TEST(CrossImplementation, HoldsAcrossSeedsAndClasses) {
  for (const char* name : {"C1_1_1", "R2_1_1"}) {
    const Instance inst = generate_named(name);
    for (std::uint64_t seed : {7ULL, 8ULL}) {
      TsmoParams params = test_params(2000);
      params.seed = seed;
      const RunResult threaded = SyncTsmo(inst, params, 2).run();
      const RunResult simulated =
          run_sim_sync(inst, params, 2, CostModel::for_instance(inst));
      EXPECT_EQ(threaded.front, simulated.front)
          << name << " seed " << seed;
    }
  }
}

TEST(CrossImplementation, StragglerNoiseCannotChangeSingleWorkerResults) {
  // The virtual-clock noise only shifts *when* the one worker finishes,
  // never what it computed — the barrier waits either way.
  const Instance inst = generate_named("R1_1_1");
  const TsmoParams params = test_params(2000);
  CostModel calm = CostModel::for_instance(inst);
  calm.straggler_sigma = 0.0;
  CostModel wild = CostModel::for_instance(inst);
  wild.straggler_sigma = 2.0;
  const RunResult a = run_sim_sync(inst, params, 2, calm);
  const RunResult b = run_sim_sync(inst, params, 2, wild);
  EXPECT_EQ(a.front, b.front);
  EXPECT_NE(a.sim_seconds, b.sim_seconds);  // timing does differ
}

TEST(CrossImplementation, HybridDetIslandWithoutExchangeIsAsyncDet) {
  // With restart_after above the run's iteration count no island leaves
  // its initial phase, so no message flows, and island 0 is async-det on
  // island 0's parameters: one straggler master, one stream, one draw
  // order, its chunks on the island's own team threads.
  const Instance inst = generate_named("R1_1_1");
  for (int candidate_k : {0, 16}) {
    TsmoParams base = test_params(3000);  // 50 iterations
    base.restart_after = 1000;
    base.candidate_k = candidate_k;
    base.trace = true;
    ParallelOptions det;
    det.deterministic = true;
    const MultisearchResult hybrid = HybridTsmo(inst, base, 2, 3, det).run();
    EXPECT_EQ(hybrid.messages_sent, 0);
    const TsmoParams island0 =
        Collaborator(base, 0, 2, HybridExchange::salt).params();
    const RunResult async = AsyncTsmo(inst, island0, 3, det).run();
    const RunResult& island = hybrid.per_searcher.front();
    EXPECT_NE(async.trace_fingerprint, 0u);
    EXPECT_EQ(island.trace_fingerprint, async.trace_fingerprint)
        << "candidate_k " << candidate_k;
    EXPECT_EQ(island.archive_fingerprint, async.archive_fingerprint)
        << "candidate_k " << candidate_k;
    EXPECT_EQ(island.evaluations, async.evaluations);
  }
}

}  // namespace
}  // namespace tsmo
