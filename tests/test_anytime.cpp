// Anytime convergence recording (DESIGN.md §9): indicator edge cases, the
// incremental-vs-scratch hypervolume equivalence, duplicate handling in the
// merge paths, the recorder event stream, and the stall watchdog.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sequential_tsmo.hpp"
#include "moo/anytime.hpp"
#include "moo/metrics.hpp"
#include "parallel/async_tsmo.hpp"
#include "parallel/hybrid_tsmo.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "util/progress.hpp"
#include "util/rng.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Instance tiny_instance() {
  GeneratorConfig config;
  config.num_customers = 30;
  config.spatial = SpatialClass::Random;
  config.horizon = HorizonClass::Short;
  config.seed = 11;
  config.name = "anytime_R1_30";
  return generate_instance(config);
}

TsmoParams tiny_params(std::uint64_t seed = 3) {
  TsmoParams p;
  p.max_evaluations = 800;
  p.neighborhood_size = 30;
  p.restart_after = 12;
  p.seed = seed;
  return p;
}

// ---------------------------------------------------------------------------
// Indicator edge cases
// ---------------------------------------------------------------------------

TEST(HypervolumeEdge, EmptyFrontIsZero) {
  EXPECT_EQ(hypervolume({}, {10.0, 5, 10.0}), 0.0);
}

TEST(HypervolumeEdge, ReferenceBoundaryPointContributesNothing) {
  const Objectives ref{10.0, 5, 10.0};
  // Each point sits exactly on one reference coordinate: no volume.
  const std::vector<Objectives> boundary{
      {10.0, 1, 1.0}, {1.0, 5, 1.0}, {1.0, 1, 10.0}};
  EXPECT_EQ(hypervolume(boundary, ref), 0.0);
  // A point beyond the reference is likewise ignored, and does not mask
  // the volume of an interior one.
  const std::vector<Objectives> mixed{{11.0, 1, 1.0}, {9.0, 4, 9.0}};
  EXPECT_EQ(hypervolume(mixed, ref), 1.0 * 1.0 * 1.0);
}

TEST(HypervolumeEdge, SinglePointFrontIsBoxVolume) {
  const Objectives ref{4.0, 3, 5.0};
  const std::vector<Objectives> front{{1.0, 1, 2.0}};
  EXPECT_EQ(hypervolume(front, ref), (4.0 - 1.0) * (3 - 1) * (5.0 - 2.0));
}

TEST(EpsilonEdge, EmptyReferenceFrontIsZero) {
  EXPECT_EQ(epsilon_indicator({}, {}), 0.0);
  const std::vector<Objectives> a{{1.0, 1, 0.0}};
  EXPECT_EQ(epsilon_indicator(a, {}), 0.0);
}

TEST(EpsilonEdge, EmptyApproximationIsInfinite) {
  const std::vector<Objectives> b{{1.0, 1, 0.0}};
  EXPECT_EQ(epsilon_indicator({}, b), kInf);
}

TEST(EpsilonEdge, SinglePointFronts) {
  const std::vector<Objectives> a{{2.0, 1, 0.0}};
  const std::vector<Objectives> b{{1.0, 1, 0.0}};
  EXPECT_EQ(epsilon_indicator(a, a), 0.0);  // identical: no shift needed
  EXPECT_EQ(epsilon_indicator(a, b), 1.0);  // shift a by its distance gap
  EXPECT_EQ(epsilon_indicator(b, a), 0.0);  // b already dominates a
}

// ---------------------------------------------------------------------------
// Incremental hypervolume
// ---------------------------------------------------------------------------

TEST(IncrementalHv, RejectsNonInteriorAndDominated) {
  IncrementalHypervolume inc({10.0, 5, 10.0});
  EXPECT_FALSE(inc.add({10.0, 1, 1.0}));  // on the boundary
  EXPECT_FALSE(inc.add({12.0, 1, 1.0}));  // outside
  EXPECT_TRUE(inc.add({2.0, 2, 2.0}));
  EXPECT_FALSE(inc.add({2.0, 2, 2.0}));  // duplicate
  EXPECT_FALSE(inc.add({3.0, 2, 2.0}));  // dominated
  EXPECT_EQ(inc.front().size(), 1u);
  EXPECT_EQ(inc.points_seen(), 5u);
  EXPECT_EQ(inc.recomputes(), 1u);
}

TEST(IncrementalHv, MatchesScratchRecomputationFuzz) {
  const Objectives ref{100.0, 12, 100.0};
  Rng rng(42);
  for (int round = 0; round < 8; ++round) {
    IncrementalHypervolume inc(ref);
    std::vector<Objectives> all;
    double prev = 0.0;
    for (int i = 0; i < 300; ++i) {
      Objectives p;
      if (!all.empty() && rng.chance(0.2)) {
        p = all[rng.below(all.size())];  // exact duplicate
      } else {
        // Mostly interior, sometimes on or past the reference boundary.
        p.distance = rng.chance(0.05) ? 100.0 : rng.uniform(0.0, 110.0);
        p.vehicles = static_cast<int>(rng.below(14));
        p.tardiness = rng.uniform(0.0, 110.0);
      }
      all.push_back(p);
      inc.add(p);
      EXPECT_GE(inc.value(), prev);  // anytime: monotone non-decreasing
      prev = inc.value();
    }
    // The lazily maintained value must be bitwise identical to a scratch
    // recomputation over everything ever fed in.
    EXPECT_EQ(inc.value(), hypervolume(nondominated_filter(all), ref));
    EXPECT_EQ(inc.points_seen(), 300u);
  }
}

// ---------------------------------------------------------------------------
// Duplicate points across fronts / searchers
// ---------------------------------------------------------------------------

TEST(MergeDedup, IdenticalVectorsKeepOneProvenanceRow) {
  const Objectives shared{5.0, 3, 0.0};
  const std::vector<std::vector<Objectives>> fronts{
      {shared, {7.0, 2, 0.0}},
      {shared, {3.0, 4, 0.0}},
      {shared}};
  std::vector<Objectives> merged;
  const auto prov = merge_fronts_attributed(fronts, &merged);
  ASSERT_EQ(merged.size(), 3u);
  ASSERT_EQ(prov.size(), merged.size());
  int shared_count = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (merged[i] == shared) {
      ++shared_count;
      // Earliest contributor wins.
      EXPECT_EQ(prov[i].front, 0);
      EXPECT_EQ(prov[i].index, 0u);
    }
  }
  EXPECT_EQ(shared_count, 1);
  EXPECT_EQ(merge_fronts(fronts), merged);
}

TEST(MergeDedup, DominatedDuplicatesVanishEntirely) {
  const std::vector<std::vector<Objectives>> fronts{
      {{5.0, 3, 0.0}, {5.0, 3, 0.0}},
      {{4.0, 3, 0.0}}};
  std::vector<Objectives> merged;
  const auto prov = merge_fronts_attributed(fronts, &merged);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], (Objectives{4.0, 3, 0.0}));
  EXPECT_EQ(prov[0].front, 1);
}

TEST(MergeDedup, MergeResultsNeverDoubleCountsSharedVectors) {
  const Instance inst = tiny_instance();
  // Two runs with the same seed produce identical fronts — the worst case
  // for duplicate handling across searchers.
  RunResult a = SequentialTsmo(inst, tiny_params()).run();
  RunResult b = SequentialTsmo(inst, tiny_params()).run();
  ASSERT_EQ(a.front, b.front);
  ASSERT_EQ(a.attribution.size(), a.front.size());
  for (auto& row : b.attribution) row.searcher = 1;  // mark the copy
  const RunResult merged = merge_results({a, b}, "dedup-test");
  EXPECT_EQ(merged.front, a.front);
  ASSERT_EQ(merged.attribution.size(), merged.front.size());
  for (const ArchiveAttribution& row : merged.attribution) {
    EXPECT_EQ(row.searcher, 0);  // first contributor won every time
  }
}

// ---------------------------------------------------------------------------
// Recorder event stream
// ---------------------------------------------------------------------------

ConvergenceConfig test_config(const Instance& inst) {
  ConvergenceConfig cc;
  cc.reference = convergence_reference(inst);
  cc.sample_every_iters = 10;
  cc.sample_every_ms = 0.0;  // iteration schedule only: deterministic
  return cc;
}

TEST(Recorder, ReferenceDominatedByAllReachablePoints) {
  const Instance inst = tiny_instance();
  const Objectives ref = convergence_reference(inst);
  const RunResult r = SequentialTsmo(inst, tiny_params()).run();
  for (const Objectives& o : r.front) {
    EXPECT_LT(o.distance, ref.distance);
    EXPECT_LT(o.vehicles, ref.vehicles);
    EXPECT_LT(o.tardiness, ref.tardiness);
  }
  const Objectives again = convergence_reference(inst);
  EXPECT_EQ(ref, again);  // deterministic in the instance
}

TEST(Recorder, SamplesInsertionsAndAttribution) {
  const Instance inst = tiny_instance();
  ConvergenceRecorder rec(test_config(inst));
  rec.engine_started("unit", 1, 0);

  SearchState state(inst, tiny_params(), Rng(tiny_params().seed));
  state.set_recorder(&rec);
  state.initialize();
  while (!state.budget_exhausted()) {
    state.step_with_candidates(state.generate_candidates(30));
  }
  rec.engine_finished(state.iterations());

  ASSERT_FALSE(rec.samples().empty());
  double prev_hv = 0.0;
  for (const ConvergenceSample& s : rec.samples()) {
    EXPECT_EQ(s.searcher, 0);
    EXPECT_EQ(s.iteration % 10, 0) << "iteration-schedule cadence";
    EXPECT_GE(s.hv, prev_hv) << "anytime hypervolume must be monotone";
    prev_hv = s.hv;
    EXPECT_EQ(s.archive_size, s.archive.size());
  }
  ASSERT_FALSE(rec.insertions().empty());
  // The initial construction is recorded (attach happened before
  // initialize), tagged as self-produced.
  EXPECT_EQ(rec.insertions().front().iteration, 0);
  EXPECT_EQ(rec.insertions().front().worker, -1);
  EXPECT_EQ(rec.insertions().front().op, -1);

  const RunResult result = collect_result(state, "unit", 0.0);
  ASSERT_EQ(result.attribution.size(), result.front.size());

  rec.finalize(result.front);
  EXPECT_TRUE(rec.finalized());
  rec.finalize(result.front);  // idempotent

  std::int64_t attributed = 0;
  for (const AttributionRow& row : rec.attribution()) {
    EXPECT_GT(row.insertions, 0);
    EXPECT_LE(row.survived, row.insertions);
    attributed += row.insertions;
  }
  EXPECT_EQ(attributed,
            static_cast<std::int64_t>(rec.insertions().size()));
  for (const ConvergenceSample& s : rec.samples()) {
    EXPECT_TRUE(std::isfinite(s.eps_to_final));
    EXPECT_GE(s.eps_to_final, 0.0);
  }
  std::size_t survivors = 0;
  for (const InsertionEvent& e : rec.insertions()) {
    if (e.survived) ++survivors;
  }
  EXPECT_GE(survivors, result.front.size());

  std::ostringstream os;
  rec.write_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0, events = 0;
  bool saw_meta = false, saw_sample = false, saw_attr = false;
  while (std::getline(is, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"event\":\"") != std::string::npos) ++events;
    saw_meta |= line.find("\"event\":\"meta\"") != std::string::npos;
    saw_sample |= line.find("\"event\":\"sample\"") != std::string::npos;
    saw_attr |= line.find("\"event\":\"attribution\"") != std::string::npos;
  }
  EXPECT_EQ(lines, events);
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_sample);
  EXPECT_TRUE(saw_attr);
  EXPECT_FALSE(rec.status_line().empty());
}

TEST(Recorder, AllFourEnginesEmitSamplesAndAttribution) {
  const Instance inst = tiny_instance();
  const TsmoParams params = tiny_params();

  auto check = [&](const char* name, auto&& run) {
    ConvergenceRecorder rec(test_config(inst));
    RunContext ctx;
    ctx.recorder = &rec;
    const RunResult r = run(ctx);
    SCOPED_TRACE(name);
    EXPECT_FALSE(rec.insertions().empty());
    EXPECT_FALSE(rec.samples().empty());
    ASSERT_EQ(r.attribution.size(), r.front.size());
    rec.finalize(r.front);
    EXPECT_FALSE(rec.attribution().empty());
    double prev = 0.0;
    for (const ConvergenceSample& s : rec.samples()) {
      EXPECT_GE(s.hv_global, prev);
      prev = s.hv_global;
    }
  };

  check("seq", [&](const RunContext& ctx) {
    return SequentialTsmo(inst, params, ctx).run();
  });
  check("sync", [&](const RunContext& ctx) {
    return SyncTsmo(inst, params, 3, {}, ctx).run();
  });
  check("async", [&](const RunContext& ctx) {
    return AsyncTsmo(inst, params, 3, {}, ctx).run();
  });
  check("coll", [&](const RunContext& ctx) {
    return MultisearchTsmo(inst, params, 3, {}, ctx).run().merged;
  });
  check("hybrid", [&](const RunContext& ctx) {
    return HybridTsmo(inst, params, 2, 2, {}, ctx).run().merged;
  });
}

// ---------------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------------

TEST(Watchdog, FlagsInjectedStragglerOncePerEpisode) {
  HeartbeatBoard board;
  const int lively = board.register_slot("lively");
  const int straggler = board.register_slot("straggler");
  std::vector<StallWatchdog::StallEvent> events;
  // A long check interval makes the monitor thread effectively inert so
  // the test drives scans deterministically via scan_now().
  StallWatchdog dog(board, /*threshold_ns=*/5'000'000,
                    /*check_interval_ns=*/3'600'000'000'000ULL,
                    [&](const StallWatchdog::StallEvent& ev) {
                      events.push_back(ev);
                    });
  board.beat(lively, 1);
  board.beat(straggler, 1);
  dog.scan_now();
  EXPECT_TRUE(events.empty());  // both fresh

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  board.beat(lively, 2);  // only the straggler goes quiet
  dog.scan_now();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].slot, straggler);
  EXPECT_EQ(events[0].label, "straggler");
  EXPECT_GE(events[0].age_ns, 5'000'000u);
  EXPECT_EQ(dog.stalled_count(), 1);

  dog.scan_now();
  EXPECT_EQ(events.size(), 1u);  // one flag per episode

  board.beat(straggler, 2);  // fresh beat re-arms the slot
  dog.scan_now();
  EXPECT_EQ(dog.stalled_count(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  board.beat(lively, 3);  // keep the healthy worker healthy
  dog.scan_now();
  EXPECT_EQ(events.size(), 2u);  // new episode, new flag
  EXPECT_EQ(dog.stalls_flagged(), 2);
}

TEST(Watchdog, RecorderRoutesStallsToActionAndEventStream) {
  const Instance inst = tiny_instance();
  ConvergenceConfig cc = test_config(inst);
  cc.stall_threshold_ms = 10.0;
  cc.stall_check_interval_ms = 2.0;
  ConvergenceRecorder rec(cc);

  std::mutex m;
  std::vector<int> stalled_searchers;
  rec.set_stall_action([&](int id) {
    std::lock_guard<std::mutex> lock(m);
    stalled_searchers.push_back(id);
  });

  SearchState state(inst, tiny_params(), Rng(1));
  state.set_trace_id(7);
  state.set_recorder(&rec, 7);
  state.initialize();
  state.step_with_candidates(state.generate_candidates(10));  // one beat
  const int worker_slot = rec.register_worker("worker 0");
  rec.worker_heartbeat(worker_slot, 1);

  // Injected straggler: nobody beats again; wait for the monitor thread.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (rec.stalls_flagged() >= 2) break;  // searcher + worker slots
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(rec.stalls_flagged(), 2);
  {
    std::lock_guard<std::mutex> lock(m);
    // The action fires for the searcher slot only, with its searcher id.
    ASSERT_FALSE(stalled_searchers.empty());
    for (int id : stalled_searchers) EXPECT_EQ(id, 7);
  }
  rec.set_stall_action(nullptr);  // engines clear before the state dies
  ASSERT_FALSE(rec.stalls().empty());
  bool saw_worker = false;
  for (const StallRecord& s : rec.stalls()) {
    EXPECT_GE(s.age_ms, 10.0);
    saw_worker |= s.label == "worker 0";
  }
  EXPECT_TRUE(saw_worker);

  std::ostringstream os;
  rec.write_jsonl(os);
  EXPECT_NE(os.str().find("\"event\":\"stall\""), std::string::npos);
}

TEST(Watchdog, StallRestartRoutesThroughDiversification) {
  const Instance inst = tiny_instance();
  // request_restart() forces the next step onto the restart path even
  // when selection would have succeeded.
  SearchState state(inst, tiny_params(), Rng(2));
  state.initialize();
  const auto c1 = state.generate_candidates(20);
  const auto normal = state.step_with_candidates(c1);
  EXPECT_FALSE(normal.restarted);
  state.request_restart();
  const auto c2 = state.generate_candidates(20);
  const auto diverted = state.step_with_candidates(c2);
  EXPECT_TRUE(diverted.restarted);
  // One-shot: the flag was consumed.
  const auto c3 = state.generate_candidates(20);
  EXPECT_FALSE(state.step_with_candidates(c3).restarted);
}

}  // namespace
}  // namespace tsmo
