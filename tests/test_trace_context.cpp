// Causal tracing layer (DESIGN.md §13): deterministic id derivation,
// ambient TraceScope propagation, rooted parent trees from nested spans,
// bounded TraceBuffer collection, the registry's attach/detach
// subscription table — and the contract that matters most: tracing is
// observation-only, so golden-seed fingerprints are bitwise identical
// with tracing on or off.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/sequential_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

TEST(TraceIds, DeriveTraceIdIsDeterministicAndNonZero) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const std::uint64_t id = telemetry::derive_trace_id(seed);
    EXPECT_NE(id, 0u) << "seed " << seed;
    EXPECT_EQ(id, telemetry::derive_trace_id(seed)) << "seed " << seed;
    seen.insert(id);
  }
  // splitmix64 finalizer: no collisions over a small dense seed range.
  EXPECT_EQ(seen.size(), 200u);
}

TEST(TraceIds, NextSpanIdIsNonZeroAndUnique) {
  const std::uint64_t trace = telemetry::derive_trace_id(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = telemetry::next_span_id(trace);
    EXPECT_NE(id, 0u);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(TraceScope, NestsAndRestoresTheAmbientContext) {
  const telemetry::TraceContext before = telemetry::current_trace();
  {
    telemetry::TraceScope outer(telemetry::TraceContext{11, 1});
    EXPECT_EQ(telemetry::current_trace().trace_id, 11u);
    EXPECT_EQ(telemetry::current_trace().span_id, 1u);
    {
      telemetry::TraceScope inner(telemetry::TraceContext{22, 2});
      EXPECT_EQ(telemetry::current_trace().trace_id, 22u);
    }
    EXPECT_EQ(telemetry::current_trace().trace_id, 11u);
  }
  EXPECT_EQ(telemetry::current_trace().trace_id, before.trace_id);
}

TEST(TraceScope, InvalidContextArmsNothing) {
  telemetry::TraceScope outer(telemetry::TraceContext{33, 3});
  {
    // trace_id 0 = untraced: the scope must not clobber the ambient state.
    telemetry::TraceScope noop(telemetry::TraceContext{0, 999});
    EXPECT_EQ(telemetry::current_trace().trace_id, 33u);
  }
  EXPECT_EQ(telemetry::current_trace().trace_id, 33u);
}

TEST(TraceBufferTest, EnforcesBudgetAndCountsDrops) {
  telemetry::TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    buf.append(telemetry::TraceSpan{"s", 0, 0, 1, 100u + i, 1, 0});
  }
  EXPECT_EQ(buf.budget(), 4u);
  EXPECT_EQ(buf.seen(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  EXPECT_EQ(buf.snapshot().size(), 4u);
  // The kept spans are the first `budget` seen, never a random subset.
  EXPECT_EQ(buf.snapshot().front().span_id, 100u);
  EXPECT_EQ(buf.snapshot().back().span_id, 103u);
}

TEST(TraceBufferTest, ZeroBudgetIsClampedToOne) {
  telemetry::TraceBuffer buf(0);
  EXPECT_EQ(buf.budget(), 1u);
}

#if TSMO_TELEMETRY_ENABLED

class TraceRoutingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_ = telemetry::set_enabled(true);
    telemetry::Registry::instance().reset();
  }
  void TearDown() override {
    telemetry::Registry::instance().reset();
    telemetry::set_enabled(was_);
  }
  bool was_ = false;
};

TEST_F(TraceRoutingTest, AttachedBufferReceivesSpansUntilDetach) {
  auto& reg = telemetry::Registry::instance();
  const std::uint64_t trace = telemetry::derive_trace_id(7001);
  telemetry::TraceBuffer buf(64);
  ASSERT_TRUE(reg.attach_trace(trace, &buf));

  const std::uint64_t parent = telemetry::next_span_id(trace);
  reg.record_span("routed", 10, 5, telemetry::TraceContext{trace, parent});
  ASSERT_EQ(buf.snapshot().size(), 1u);
  EXPECT_STREQ(buf.snapshot()[0].name, "routed");
  EXPECT_EQ(buf.snapshot()[0].parent_id, parent);
  EXPECT_NE(buf.snapshot()[0].span_id, 0u);

  reg.detach_trace(trace);
  reg.record_span("late", 20, 5, telemetry::TraceContext{trace, parent});
  EXPECT_EQ(buf.snapshot().size(), 1u);  // no longer routed
}

TEST_F(TraceRoutingTest, UntracedSpansDoNotRoute) {
  auto& reg = telemetry::Registry::instance();
  const std::uint64_t trace = telemetry::derive_trace_id(7002);
  telemetry::TraceBuffer buf(64);
  ASSERT_TRUE(reg.attach_trace(trace, &buf));
  reg.record_span("plain", 10, 5);  // untraced overload
  reg.record_span("other", 10, 5, telemetry::TraceContext{});  // invalid ctx
  EXPECT_EQ(buf.snapshot().size(), 0u);
  reg.detach_trace(trace);
}

TEST_F(TraceRoutingTest, NestedSpansFormARootedParentTree) {
  auto& reg = telemetry::Registry::instance();
  const std::uint64_t trace = telemetry::derive_trace_id(7003);
  const std::uint64_t root = telemetry::next_span_id(trace);
  telemetry::TraceBuffer buf(64);
  ASSERT_TRUE(reg.attach_trace(trace, &buf));
  {
    telemetry::TraceScope scope(telemetry::TraceContext{trace, root});
    telemetry::Span outer("outer");
    {
      telemetry::Span inner("inner");
      (void)inner;
    }
    (void)outer;
  }
  reg.detach_trace(trace);

  const std::vector<telemetry::TraceSpan> spans = buf.snapshot();
  ASSERT_EQ(spans.size(), 2u);  // destruction order: inner first
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_id, root);
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  // Every parent link resolves to the root or another collected span.
  std::set<std::uint64_t> ids{root};
  for (const telemetry::TraceSpan& s : spans) ids.insert(s.span_id);
  for (const telemetry::TraceSpan& s : spans) {
    EXPECT_TRUE(ids.count(s.parent_id) == 1) << s.name;
  }
}

TEST_F(TraceRoutingTest, InstantsRequireATraceAndCarryKindOne) {
  auto& reg = telemetry::Registry::instance();
  const std::uint64_t trace = telemetry::derive_trace_id(7004);
  telemetry::TraceBuffer buf(64);
  ASSERT_TRUE(reg.attach_trace(trace, &buf));

  reg.record_instant("untraced", 5, telemetry::TraceContext{});
  EXPECT_EQ(buf.snapshot().size(), 0u);

  const std::uint64_t parent = telemetry::next_span_id(trace);
  reg.record_instant("insert", 6, telemetry::TraceContext{trace, parent});
  reg.detach_trace(trace);
  ASSERT_EQ(buf.snapshot().size(), 1u);
  EXPECT_EQ(buf.snapshot()[0].kind, 1);
  EXPECT_EQ(buf.snapshot()[0].dur_ns, 0u);
  EXPECT_EQ(buf.snapshot()[0].parent_id, parent);
}

TEST_F(TraceRoutingTest, AttachRejectsZeroIdAndBoundsTheTable) {
  auto& reg = telemetry::Registry::instance();
  telemetry::TraceBuffer buf(8);
  EXPECT_FALSE(reg.attach_trace(0, &buf));

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < telemetry::kMaxActiveTraces; ++i) {
    ids.push_back(telemetry::derive_trace_id(9000u + i));
    ASSERT_TRUE(reg.attach_trace(ids.back(), &buf)) << i;
  }
  const std::uint64_t extra = telemetry::derive_trace_id(9999);
  EXPECT_FALSE(reg.attach_trace(extra, &buf));  // table full, fails soft
  for (std::uint64_t id : ids) reg.detach_trace(id);
  EXPECT_TRUE(reg.attach_trace(extra, &buf));  // slots are reusable
  reg.detach_trace(extra);
}

TEST_F(TraceRoutingTest, SpanSnapshotsCarryTheCausalIds) {
  auto& reg = telemetry::Registry::instance();
  const std::uint64_t trace = telemetry::derive_trace_id(7005);
  const std::uint64_t parent = telemetry::next_span_id(trace);
  reg.record_span("snap", 10, 5, telemetry::TraceContext{trace, parent});
  const telemetry::Snapshot snap = reg.snapshot();
  bool found = false;
  for (const telemetry::SpanSnap& s : snap.spans) {
    if (s.name != "snap") continue;
    found = true;
    EXPECT_EQ(s.trace_id, trace);
    EXPECT_EQ(s.parent_id, parent);
    EXPECT_NE(s.span_id, 0u);
  }
  EXPECT_TRUE(found);
}

#endif  // TSMO_TELEMETRY_ENABLED

// --------------------------------------------------------------------------
// Fingerprint neutrality: a traced run must be bitwise identical to an
// untraced run of the same (instance, params, seed).
// --------------------------------------------------------------------------

Instance trace_instance() {
  GeneratorConfig config;
  config.num_customers = 30;
  config.spatial = SpatialClass::Random;
  config.horizon = HorizonClass::Short;
  config.seed = 9;
  config.name = "trace_R1_30";
  return generate_instance(config);
}

TsmoParams trace_params(std::uint64_t seed) {
  TsmoParams p;
  p.max_evaluations = 800;
  p.neighborhood_size = 40;
  p.restart_after = 15;
  p.trace = true;
  p.seed = seed;
  return p;
}

TEST(TraceNeutrality, FingerprintsIdenticalTracedOrNot) {
  const Instance inst = trace_instance();
  for (std::uint64_t seed : {7ull, 101ull}) {
    const RunResult plain = SequentialTsmo(inst, trace_params(seed)).run();

    TsmoParams traced = trace_params(seed);
    traced.telemetry = true;
    RunContext ctx;
    ctx.trace.trace_id = telemetry::derive_trace_id(seed);
    ctx.trace.span_id = telemetry::next_span_id(ctx.trace.trace_id);
    telemetry::TraceBuffer buf(4096);
#if TSMO_TELEMETRY_ENABLED
    ASSERT_TRUE(telemetry::Registry::instance().attach_trace(
        ctx.trace.trace_id, &buf));
#endif
    const RunResult collected = SequentialTsmo(inst, traced, ctx).run();
#if TSMO_TELEMETRY_ENABLED
    telemetry::Registry::instance().detach_trace(ctx.trace.trace_id);
    EXPECT_GT(buf.seen(), 0u) << "tracing-on run collected no spans";
#endif
    telemetry::set_enabled(false);

    EXPECT_EQ(plain.trace_fingerprint, collected.trace_fingerprint);
    EXPECT_EQ(plain.archive_fingerprint, collected.archive_fingerprint);
    EXPECT_EQ(plain.front, collected.front);
    EXPECT_EQ(plain.evaluations, collected.evaluations);
  }
}

TEST(TraceNeutrality, SyncDeterministicUnaffectedByTraceIds) {
  const Instance inst = trace_instance();
  SyncOptions options;
  options.deterministic = true;
  options.exec_threads = 2;

  const RunResult plain =
      SyncTsmo(inst, trace_params(7), 4, options).run();

  RunContext ctx;
  ctx.trace.trace_id = telemetry::derive_trace_id(7);
  ctx.trace.span_id = telemetry::next_span_id(ctx.trace.trace_id);
  const RunResult with_ids =
      SyncTsmo(inst, trace_params(7), 4, options, ctx).run();

  EXPECT_EQ(plain.trace_fingerprint, with_ids.trace_fingerprint);
  EXPECT_EQ(plain.archive_fingerprint, with_ids.archive_fingerprint);
  EXPECT_EQ(plain.front, with_ids.front);
}

}  // namespace
}  // namespace tsmo
