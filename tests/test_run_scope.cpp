// RunContext and RunScope (DESIGN.md §17): all 14 run paths — the five
// threaded engines in both modes and the five DES drivers — set up the
// observation around a run through one RunScope.  These tests drive every
// path through the same context: the recorder sees each searcher's first
// I1 insertion and the engine lifecycle, the flight ring records start and
// finish under the trace id, the stop flag ends the run, the stall
// reaction is cleared before the states die, and no context moves a
// fingerprint.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/run_context.hpp"
#include "core/sequential_tsmo.hpp"
#include "moo/anytime.hpp"
#include "moo/introspect.hpp"
#include "obs/flight_recorder.hpp"
#include "parallel/async_tsmo.hpp"
#include "parallel/hybrid_tsmo.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "sim/sim_tsmo.hpp"
#include "util/telemetry.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

Instance scope_instance() {
  GeneratorConfig config;
  config.num_customers = 30;
  config.spatial = SpatialClass::Random;
  config.horizon = HorizonClass::Short;
  config.seed = 3;
  config.name = "scope_R1_30";
  return generate_instance(config);
}

TsmoParams scope_params() {
  TsmoParams p;
  p.max_evaluations = 1000;
  p.neighborhood_size = 40;
  p.restart_after = 15;
  p.trace = true;
  p.seed = 11;
  return p;
}

using RunFn = std::function<RunResult(const Instance&, const TsmoParams&,
                                      const RunContext&)>;

/// One run path: the engine name RunScope records, whether the result is
/// a pure function of (params, processors), and how to run it.
struct Path {
  std::string engine;
  bool deterministic;
  RunFn run;
};

std::vector<Path> all_paths() {
  SyncOptions sync_det;
  sync_det.deterministic = true;
  AsyncOptions async_det;
  async_det.deterministic = true;
  MultisearchOptions coll_det;
  coll_det.deterministic = true;
  HybridOptions hybrid_det;
  hybrid_det.deterministic = true;
  return {
      {"sequential", true,
       [](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return SequentialTsmo(i, p, c).run();
       }},
      {"sync", false,
       [](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return SyncTsmo(i, p, 3, {}, c).run();
       }},
      {"sync", true,
       [=](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return SyncTsmo(i, p, 3, sync_det, c).run();
       }},
      {"async", false,
       [](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return AsyncTsmo(i, p, 3, {}, c).run();
       }},
      {"async", true,
       [=](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return AsyncTsmo(i, p, 3, async_det, c).run();
       }},
      {"coll", false,
       [](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return MultisearchTsmo(i, p, 3, {}, c).run().merged;
       }},
      {"coll", true,
       [=](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return MultisearchTsmo(i, p, 3, coll_det, c).run().merged;
       }},
      {"hybrid", false,
       [](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return HybridTsmo(i, p, 2, 2, {}, c).run().merged;
       }},
      {"hybrid", true,
       [=](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return HybridTsmo(i, p, 2, 2, hybrid_det, c).run().merged;
       }},
      {"sim-sequential", true,
       [](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return run_sim_sequential(i, p, CostModel::for_instance(i), c);
       }},
      {"sim-sync", true,
       [](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return run_sim_sync(i, p, 3, CostModel::for_instance(i), c);
       }},
      {"sim-async", true,
       [](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return run_sim_async(i, p, 3, CostModel::for_instance(i), {}, c);
       }},
      {"sim-coll", true,
       [](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return run_sim_multisearch(i, p, 3, CostModel::for_instance(i), c)
             .merged;
       }},
      {"sim-hybrid", true,
       [](const Instance& i, const TsmoParams& p, const RunContext& c) {
         return run_sim_hybrid(i, p, 2, 2, CostModel::for_instance(i), c)
             .merged;
       }},
  };
}

ConvergenceConfig scope_config(const Instance& inst) {
  ConvergenceConfig cc;
  cc.reference = convergence_reference(inst);
  cc.sample_every_iters = 5;
  cc.sample_every_ms = 0.0;
  return cc;
}

TEST(RunScope, EveryPathReportsThroughTheRecorder) {
  const Instance inst = scope_instance();
  const std::vector<Path> paths = all_paths();
  ASSERT_EQ(paths.size(), 14u);
  for (const Path& path : paths) {
    SCOPED_TRACE(path.engine + (path.deterministic ? " (det)" : ""));
    ConvergenceRecorder rec(scope_config(inst));
    RunContext ctx;
    ctx.recorder = &rec;
    const RunResult r = path.run(inst, scope_params(), ctx);
    rec.finalize(r.front);

    EXPECT_EQ(rec.live_status().engine, path.engine);
    EXPECT_FALSE(rec.samples().empty());
    ASSERT_FALSE(rec.insertions().empty());
    // The state was attached before initialize(): every searcher's first
    // recorded insertion is its I1 solution.
    std::map<int, const InsertionEvent*> first;
    for (const InsertionEvent& ev : rec.insertions()) {
      first.emplace(ev.searcher, &ev);
    }
    for (const auto& [searcher, ev] : first) {
      EXPECT_EQ(ev->op, -1) << "searcher " << searcher;
      EXPECT_EQ(ev->iteration, 0) << "searcher " << searcher;
    }
    std::ostringstream jsonl;
    rec.write_jsonl(jsonl);
    EXPECT_NE(jsonl.str().find("\"event\":\"engine_start\""),
              std::string::npos);
    EXPECT_NE(jsonl.str().find("\"event\":\"engine_finish\""),
              std::string::npos);
  }
}

TEST(RunScope, ContextNeverMovesFingerprints) {
  const Instance inst = scope_instance();
  for (const Path& path : all_paths()) {
    if (!path.deterministic) continue;
    SCOPED_TRACE(path.engine);
    const RunResult bare = path.run(inst, scope_params(), {});

    ConvergenceRecorder rec(scope_config(inst));
    LiveIntrospect hub("scope");
    const std::atomic<bool> never{false};
    RunContext ctx;
    ctx.stop = &never;
    ctx.trace.trace_id = telemetry::derive_trace_id(11);
    ctx.recorder = &rec;
    ctx.introspect = &hub;
    const RunResult observed = path.run(inst, scope_params(), ctx);

    EXPECT_EQ(bare.trace_fingerprint, observed.trace_fingerprint);
    EXPECT_EQ(bare.archive_fingerprint, observed.archive_fingerprint);
    EXPECT_EQ(bare.evaluations, observed.evaluations);
    EXPECT_GT(hub.totals().steps, 0u);
  }
}

TEST(RunScope, StopFlagEndsEveryPath) {
  const Instance inst = scope_instance();
  const std::atomic<bool> stop{true};
  RunContext ctx;
  ctx.stop = &stop;
  for (const Path& path : all_paths()) {
    SCOPED_TRACE(path.engine + (path.deterministic ? " (det)" : ""));
    const RunResult r = path.run(inst, scope_params(), ctx);
    // Only the initial constructions ran, and their front survives.
    EXPECT_LT(r.evaluations, 10);
    EXPECT_FALSE(r.front.empty());
  }
}

TEST(RunScope, FlightRingRecordsStartAndFinishWithTheTraceId) {
  const bool was = obs::FlightRecorder::set_enabled(true);
  obs::FlightRecorder::instance().reset();
  RunContext ctx;
  ctx.trace.trace_id = telemetry::derive_trace_id(42);
  const RunResult r =
      SequentialTsmo(scope_instance(), scope_params(), ctx).run();
  const std::vector<obs::FlightEvent> events =
      obs::FlightRecorder::instance().snapshot();
  obs::FlightRecorder::instance().reset();
  obs::FlightRecorder::set_enabled(was);

  int starts = 0;
  int finishes = 0;
  for (const obs::FlightEvent& ev : events) {
    if (ev.kind == obs::FlightKind::kEngineStart) {
      ++starts;
      EXPECT_STREQ(ev.tag, "sequential");
      EXPECT_EQ(ev.a, 1);
      EXPECT_EQ(ev.trace, ctx.trace.trace_id);
    }
    if (ev.kind == obs::FlightKind::kEngineFinish) {
      ++finishes;
      EXPECT_STREQ(ev.tag, "sequential");
      EXPECT_EQ(ev.v, r.iterations);
      EXPECT_EQ(ev.trace, ctx.trace.trace_id);
    }
  }
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(finishes, 1);
}

/// The stall reaction routes watchdog verdicts into the free-running async
/// and hybrid searchers.  finish() clears it before their states die: the
/// watchdog keeps running after the run, and under the sanitizers a
/// verdict reaching a dead state would be reported.
TEST(RunScope, StallRestartIsClearedBeforeTheStatesDie) {
  const Instance inst = scope_instance();
  TsmoParams params = scope_params();
  params.max_evaluations = 3000;
  for (const Path& path : all_paths()) {
    if (path.deterministic ||
        (path.engine != "async" && path.engine != "hybrid")) {
      continue;
    }
    SCOPED_TRACE(path.engine);
    ConvergenceConfig cc = scope_config(inst);
    cc.stall_threshold_ms = 1.0;
    cc.stall_check_interval_ms = 1.0;
    ConvergenceRecorder rec(cc);
    RunContext ctx;
    ctx.recorder = &rec;
    ctx.stall_restart = true;
    const RunResult r = path.run(inst, params, ctx);
    EXPECT_FALSE(r.front.empty());
    // The finished searchers' slots go stale now; the watchdog's verdicts
    // on them must find no action.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GT(rec.stalls_flagged(), 0);
  }
}

}  // namespace
}  // namespace tsmo
