// Live search-introspection tests (DESIGN.md §14): counter-funnel
// consistency on a real run, merge arithmetic, hub publication and JSON
// validity, registry attach/detach, and RunResult propagation through the
// parallel merge paths.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/search_state.hpp"
#include "core/sequential_tsmo.hpp"
#include "moo/introspect.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "util/json.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

Instance small_instance() {
  GeneratorConfig config;
  config.num_customers = 30;
  config.spatial = SpatialClass::Random;
  config.horizon = HorizonClass::Short;
  config.seed = 11;
  config.name = "introspect_R1_30";
  return generate_instance(config);
}

TsmoParams small_params() {
  TsmoParams p;
  p.max_evaluations = 800;
  p.neighborhood_size = 30;
  p.seed = 3;
  return p;
}

TEST(IntrospectStats, MergeSumsCountersAndGauges) {
  IntrospectStats a;
  a.proposed[0] = 10;
  a.accepted[0] = 4;
  a.improving[0] = 2;
  a.steps = 5;
  a.tabu_checked = 50;
  a.tabu_hits = 7;
  a.tabu_occupancy_now = 3;
  a.tabu_tenure = 20;
  a.archive_inserts = 2;
  a.archive_size_now = 4;

  IntrospectStats b;
  b.proposed[0] = 1;
  b.proposed[1] = 6;
  b.steps = 2;
  b.tabu_tenure = 25;
  b.archive_size_now = 1;

  a.merge(b);
  EXPECT_EQ(a.proposed[0], 11u);
  EXPECT_EQ(a.proposed[1], 6u);
  EXPECT_EQ(a.steps, 7u);
  EXPECT_EQ(a.tabu_checked, 50u);
  EXPECT_EQ(a.tabu_occupancy_now, 3u);
  EXPECT_EQ(a.tabu_tenure, 25u) << "tenure takes the max, not the sum";
  EXPECT_EQ(a.archive_size_now, 5u);
  EXPECT_EQ(a.total_proposed(), 17u);
  EXPECT_EQ(a.total_accepted(), 4u);
  EXPECT_EQ(a.total_improving(), 2u);
}

/// The funnel is physically consistent on a real run: proposals >= steps
/// (each step proposes a whole neighborhood), accepted == steps that
/// selected a candidate, improving <= accepted, tabu_hits <= checked,
/// archive attempts == sum of outcomes.
TEST(IntrospectFunnel, CountersConsistentOnRealRun) {
  const Instance inst = small_instance();
  const RunResult r = SequentialTsmo(inst, small_params()).run();
  const IntrospectStats& is = r.introspect;

  EXPECT_GT(is.steps, 0u);
  EXPECT_GT(is.total_proposed(), is.steps);
  EXPECT_LE(is.total_accepted(), is.steps);
  EXPECT_LE(is.total_improving(), is.total_accepted());
  EXPECT_LE(is.tabu_hits, is.tabu_checked);
  EXPECT_LE(is.tabu_aspirations, is.tabu_hits);
  EXPECT_GT(is.archive_attempts(), 0u);
  EXPECT_EQ(is.archive_attempts(),
            is.archive_inserts + is.archive_dominated_rejects +
                is.archive_duplicate_rejects + is.archive_crowded_rejects);
  EXPECT_GT(is.archive_size_now, 0u);
  EXPECT_EQ(is.archive_size_now, r.front.size());
  EXPECT_GT(is.tabu_tenure, 0u);
}

TEST(LiveIntrospectHub, PublishesTotalsAndValidJson) {
  LiveIntrospect hub("unit-hub");
  EXPECT_EQ(hub.label(), "unit-hub");
  const int s0 = hub.register_searcher();
  const int s1 = hub.register_searcher();
  EXPECT_NE(s0, s1);

  IntrospectStats a;
  a.steps = 10;
  a.proposed[0] = 100;
  a.accepted[0] = 10;
  IntrospectStats b;
  b.steps = 4;
  b.proposed[1] = 40;
  hub.publish(s0, a);
  hub.publish(s1, b);

  const IntrospectStats totals = hub.totals();
  EXPECT_EQ(totals.steps, 14u);
  EXPECT_EQ(totals.total_proposed(), 140u);

  // Re-publishing a slot replaces, never double-counts.
  a.steps = 12;
  hub.publish(s0, a);
  EXPECT_EQ(hub.totals().steps, 16u);

  const std::string json = hub.to_json();
  std::string err;
  const std::unique_ptr<JsonValue> doc = json_parse(json, &err);
  ASSERT_NE(doc, nullptr) << err << "\n" << json;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("label")->as_string(), "unit-hub");
  EXPECT_EQ(doc->find("searchers")->as_int64(0), 2);
  const JsonValue* search = doc->find("search");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->find("steps")->as_int64(0), 16);
  ASSERT_NE(doc->find("operators"), nullptr);
  ASSERT_NE(doc->find("tabu"), nullptr);
  ASSERT_NE(doc->find("archive"), nullptr);
}

TEST(IntrospectRegistry, AggregatesLiveHubsAndDetachesOnDestruction) {
  int hubs_before = 0;
  IntrospectRegistry::instance().aggregate(&hubs_before);
  {
    LiveIntrospect hub("reg-test");
    const int slot = hub.register_searcher();
    IntrospectStats s;
    s.steps = 99;
    hub.publish(slot, s);

    int hubs = 0;
    const IntrospectStats agg =
        IntrospectRegistry::instance().aggregate(&hubs);
    EXPECT_EQ(hubs, hubs_before + 1);
    EXPECT_GE(agg.steps, 99u);
  }
  int hubs_after = 0;
  IntrospectRegistry::instance().aggregate(&hubs_after);
  EXPECT_EQ(hubs_after, hubs_before);
}

/// Engines attached to a hub publish into it, and the merged RunResult
/// carries the summed per-searcher stats for both parallel merge paths.
TEST(IntrospectEngines, HubReceivesPublishesAndMergeSums) {
  const Instance inst = small_instance();
  {
    LiveIntrospect hub("sync-run");
    SyncOptions so;
    so.deterministic = true;
    RunContext ctx;
    ctx.introspect = &hub;
    const RunResult r = SyncTsmo(inst, small_params(), 3, so, ctx).run();
    EXPECT_GT(hub.totals().steps, 0u);
    EXPECT_EQ(hub.totals().steps, r.introspect.steps);
  }
  {
    LiveIntrospect hub("coll-run");
    MultisearchOptions mo;
    mo.deterministic = true;
    RunContext ctx;
    ctx.introspect = &hub;
    const MultisearchResult r =
        MultisearchTsmo(inst, small_params(), 3, mo, ctx).run();
    // merged carries the sum over searchers; each searcher stepped.
    std::uint64_t per_searcher_sum = 0;
    for (const RunResult& s : r.per_searcher) {
      EXPECT_GT(s.introspect.steps, 0u);
      per_searcher_sum += s.introspect.steps;
    }
    EXPECT_EQ(r.merged.introspect.steps, per_searcher_sum);
    EXPECT_EQ(hub.totals().steps, per_searcher_sum);
  }
}

/// A hub passed through the run context alone (no options) must leave
/// RunResult::introspect identical to the bare run.
TEST(IntrospectEngines, ParamsFlagAloneCollects) {
  const Instance inst = small_instance();
  const TsmoParams p = small_params();
  const RunResult bare = SequentialTsmo(inst, p).run();
  LiveIntrospect hub("seq-run");
  RunContext ctx;
  ctx.introspect = &hub;
  const RunResult observed = SequentialTsmo(inst, p, ctx).run();
  EXPECT_EQ(hub.totals().steps, observed.introspect.steps);
  EXPECT_EQ(bare.archive_fingerprint, observed.archive_fingerprint);
  EXPECT_EQ(bare.introspect.steps, observed.introspect.steps);
  EXPECT_GT(observed.introspect.steps, 0u);
}

TEST(IntrospectRates, WindowedRatesAreFiniteAndBounded) {
  LiveIntrospect hub("rates");
  const int slot = hub.register_searcher();
  IntrospectStats s;
  s.steps = 100;
  s.proposed[0] = 1000;
  s.accepted[0] = 80;
  s.improving[0] = 20;
  s.tabu_checked = 900;
  s.tabu_hits = 90;
  hub.publish(slot, s);
  const IntrospectRates r = hub.windowed_rates();
  EXPECT_GE(r.acceptance_rate, 0.0);
  EXPECT_LE(r.acceptance_rate, 1.0);
  EXPECT_GE(r.tabu_hit_rate, 0.0);
  EXPECT_LE(r.tabu_hit_rate, 1.0);
  EXPECT_GE(r.steps_per_s, 0.0);
}

}  // namespace
}  // namespace tsmo
