// Telemetry layer tests (DESIGN.md §8): exact shard-merge conservation
// under concurrent writers (run under TSan in CI), histogram quantiles
// against a brute-force reference, span-ring wraparound accounting, JSON
// validity of the Chrome trace and JSONL snapshot exports, and the
// golden-seed guard proving telemetry never perturbs the search.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sequential_tsmo.hpp"
#include "util/telemetry.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

using telemetry::Registry;
using telemetry::Snapshot;

// Minimal recursive-descent JSON validator — enough to reject anything
// structurally broken that chrome://tracing or a JSONL consumer would
// choke on (unbalanced brackets, bad escapes, trailing garbage).
class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker c(text);
    c.ws();
    if (!c.value()) return false;
    c.ws();
    return c.i_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++i_;
    return true;
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (!eat(*p)) return false;
    }
    return true;
  }

  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (!eat(':')) return false;
      ws();
      if (!value()) return false;
      ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    for (;;) {
      ws();
      if (!value()) return false;
      ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        const char e = s_[i_++];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            if (i_ >= s_.size() || std::isxdigit(
                static_cast<unsigned char>(s_[i_])) == 0) {
              return false;
            }
            ++i_;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }

  bool number() {
    const std::size_t start = i_;
    eat('-');
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++i_;
    if (eat('.')) {
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++i_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++i_;
      if (peek() == '+' || peek() == '-') ++i_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++i_;
    }
    return i_ > start && s_[start] != '-' ? true : i_ > start + 1;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// Every test starts from a zeroed registry with telemetry live and leaves
/// it switched off so unrelated suites see no residue.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    Registry::instance().reset();
  }
  void TearDown() override {
    Registry::instance().reset();
    telemetry::set_enabled(false);
  }
};

TEST_F(TelemetryTest, ShardMergeConservesCountsAcrossThreads) {
  auto& reg = Registry::instance();
  const auto counter = reg.counter("test.conserved");
  const auto hist = reg.histogram("test.conserved_ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, counter, hist, t] {
      for (int k = 0; k < kPerThread; ++k) {
        reg.add(counter);
        reg.record_ns(hist, static_cast<std::uint64_t>(t * kPerThread + k));
      }
    });
  }
  for (auto& t : threads) t.join();

  const Snapshot snap = reg.snapshot();
  const auto* c = snap.find_counter("test.conserved");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto* h = snap.find_histogram("test.conserved_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(TelemetryTest, CountsSurviveThreadExit) {
  auto& reg = Registry::instance();
  const auto counter = reg.counter("test.exited");
  std::thread([&reg, counter] { reg.add(counter, 42); }).join();
  const Snapshot snap = reg.snapshot();
  const auto* c = snap.find_counter("test.exited");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 42u);
}

TEST_F(TelemetryTest, HistogramQuantilesTrackBruteForce) {
  auto& reg = Registry::instance();
  const auto hist = reg.histogram("test.quantiles_ns");
  // Deterministic skewed sample spanning several decades.
  std::vector<std::uint64_t> samples;
  std::uint64_t x = 88172645463325252ULL;
  for (int k = 0; k < 5000; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    samples.push_back(100 + x % 1000000);  // 100 ns .. 1 ms
  }
  for (const std::uint64_t s : samples) reg.record_ns(hist, s);

  const Snapshot snap = reg.snapshot();
  const auto* h = snap.find_histogram("test.quantiles_ns");
  ASSERT_NE(h, nullptr);
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    const double exact = static_cast<double>(samples[rank]);
    const double est = h->quantile_ns(q);
    // log2 buckets bound the error by one power of two.
    EXPECT_GE(est, exact / 2.0) << "q=" << q;
    EXPECT_LE(est, exact * 2.0) << "q=" << q;
  }
  const double mean_exact =
      static_cast<double>(std::accumulate(samples.begin(), samples.end(),
                                          std::uint64_t{0})) /
      static_cast<double>(samples.size());
  EXPECT_NEAR(h->mean_ns(), mean_exact, 1e-6);  // sums are exact
}

TEST_F(TelemetryTest, HistogramBucketEdges) {
  auto& reg = Registry::instance();
  const auto hist = reg.histogram("test.edges_ns");
  reg.record_ns(hist, 0);
  reg.record_ns(hist, 1);
  reg.record_ns(hist, 2);
  reg.record_ns(hist, 3);
  reg.record_ns(hist, 4);
  const Snapshot snap = reg.snapshot();
  const auto* h = snap.find_histogram("test.edges_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->buckets[0], 1u);  // exact zero
  EXPECT_EQ(h->buckets[1], 1u);  // [1, 2)
  EXPECT_EQ(h->buckets[2], 2u);  // [2, 4)
  EXPECT_EQ(h->buckets[3], 1u);  // [4, 8)
  EXPECT_EQ(h->count, 5u);
  EXPECT_EQ(h->sum_ns, 10u);
}

TEST_F(TelemetryTest, SpanRingWrapsAndCountsDrops) {
  auto& reg = Registry::instance();
  constexpr int kExtra = 100;
  const int total = telemetry::kSpanRingCapacity + kExtra;
  for (int k = 0; k < total; ++k) {
    reg.record_span("test.span", static_cast<std::uint64_t>(k), 1);
  }
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.spans.size(),
            static_cast<std::size_t>(telemetry::kSpanRingCapacity));
  // The ring keeps the newest records: the oldest kExtra starts are gone.
  std::uint64_t min_start = ~0ULL;
  for (const auto& s : snap.spans) min_start = std::min(min_start, s.start_ns);
  EXPECT_EQ(min_start, static_cast<std::uint64_t>(kExtra));
  bool found = false;
  for (const auto& t : snap.threads) {
    if (t.spans_recorded == static_cast<std::uint64_t>(total)) {
      EXPECT_EQ(t.spans_dropped, static_cast<std::uint64_t>(kExtra));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TelemetryTest, ChromeTraceAndJsonlAreValidJson) {
  auto& reg = Registry::instance();
  reg.set_thread_label("main \"quoted\" \\ lane");
  reg.add(reg.counter("test.counter"), 7);
  reg.gauge_set(reg.gauge("test.gauge"), -3);
  reg.record_ns(reg.histogram("test.hist_ns"), 1234);
  reg.record_span("test.span", 10, 20);
  const Snapshot snap = reg.snapshot();

  std::ostringstream trace;
  telemetry::write_chrome_trace(trace, snap);
  EXPECT_TRUE(JsonChecker::valid(trace.str())) << trace.str();
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.str().find("test.span"), std::string::npos);

  std::ostringstream jsonl;
  telemetry::write_snapshot_jsonl(jsonl, snap);
  std::istringstream lines(jsonl.str());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonChecker::valid(line)) << line;
    ++n;
  }
  EXPECT_GE(n, 4);  // meta + counter + gauge + histogram at least
}

TEST_F(TelemetryTest, SinkWritesBothFilesAndDerivesSnapshotPath) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "tsmo_telemetry_test";
  std::filesystem::create_directories(dir);
  const std::string trace = (dir / "run.json").string();
  auto& reg = Registry::instance();
  reg.add(reg.counter("test.sink"), 1);

  const telemetry::TelemetrySink sink(trace);
  EXPECT_EQ(sink.snapshot_path(), (dir / "run.jsonl").string());
  EXPECT_TRUE(sink.write(reg.snapshot()));
  EXPECT_TRUE(std::filesystem::exists(sink.trace_path()));
  EXPECT_TRUE(std::filesystem::exists(sink.snapshot_path()));

  const telemetry::TelemetrySink bare((dir / "other.trace").string());
  EXPECT_EQ(bare.snapshot_path(), (dir / "other.trace.jsonl").string());
  std::filesystem::remove_all(dir);
}

TEST_F(TelemetryTest, ResetKeepsRegistrationsAndZeroesValues) {
  auto& reg = Registry::instance();
  const auto counter = reg.counter("test.reset");
  reg.add(counter, 5);
  reg.reset();
  reg.add(counter, 2);  // the pre-reset id must still be live
  const Snapshot snap = reg.snapshot();
  const auto* c = snap.find_counter("test.reset");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 2u);
}

TEST(TelemetryDisabled, MacrosRecordNothingWhenOff) {
  telemetry::set_enabled(false);
  Registry::instance().reset();
  TSMO_COUNT("test.disabled");
  TSMO_RECORD_NS("test.disabled_ns", 99);
  { TSMO_SPAN("test.disabled_span"); }
  const Snapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.find_counter("test.disabled"), nullptr);
  EXPECT_EQ(snap.find_histogram("test.disabled_ns"), nullptr);
  EXPECT_TRUE(snap.spans.empty());
}

#if TSMO_TELEMETRY_ENABLED
// Candidate-list pruning and batch pricing publish their effectiveness
// metrics: prune hit/reject counters, a batch counter, and the batch fill
// ratio histogram (percent of requested neighbors produced per batch).
TEST_F(TelemetryTest, PruneAndPricingMetricsArePublished) {
  GeneratorConfig config;
  config.num_customers = 30;
  config.spatial = SpatialClass::Random;
  config.horizon = HorizonClass::Short;
  config.seed = 11;
  config.name = "prune_metrics_R1_30";
  const Instance inst = generate_instance(config);

  TsmoParams params;
  params.max_evaluations = 800;
  params.neighborhood_size = 40;
  params.candidate_k = 12;
  params.telemetry = true;
  params.seed = 9;
  SequentialTsmo(inst, params).run();

  const Snapshot snap = Registry::instance().snapshot();
  const auto* hits = snap.find_counter("neighborhood.prune_hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_GT(hits->value, 0u);
  // Rejects are registered too (they may legitimately be zero on easy
  // instances, so only presence is asserted).
  EXPECT_NE(snap.find_counter("neighborhood.prune_rejects"), nullptr);
  // One pricing span per generated neighborhood; perfbench reads it as
  // operators.price_s.
  const auto* price = snap.find_histogram("move.price_ns");
  ASSERT_NE(price, nullptr);
  EXPECT_GT(price->count, 0u);
}
#endif  // TSMO_TELEMETRY_ENABLED

// Golden-seed guard: the sequential engine must produce bit-identical
// decision traces and archives with telemetry on and off — observation
// only, no RNG or ordering perturbation.
TEST(TelemetryGoldenSeed, FingerprintsIdenticalOnAndOff) {
  GeneratorConfig config;
  config.num_customers = 30;
  config.spatial = SpatialClass::Random;
  config.horizon = HorizonClass::Short;
  config.seed = 11;
  config.name = "telemetry_guard_R1_30";
  const Instance inst = generate_instance(config);

  TsmoParams params;
  params.max_evaluations = 1500;
  params.neighborhood_size = 40;
  params.restart_after = 15;
  params.trace = true;
  params.seed = 123;

  telemetry::set_enabled(false);
  params.telemetry = false;
  const RunResult off = SequentialTsmo(inst, params).run();

  Registry::instance().reset();
  params.telemetry = true;  // the engine flips the global switch itself
  const RunResult on = SequentialTsmo(inst, params).run();
  Registry::instance().reset();
  telemetry::set_enabled(false);

  EXPECT_EQ(off.trace_fingerprint, on.trace_fingerprint);
  EXPECT_EQ(off.archive_fingerprint, on.archive_fingerprint);
  EXPECT_EQ(off.front.size(), on.front.size());
  EXPECT_EQ(off.evaluations, on.evaluations);
}

}  // namespace
}  // namespace tsmo
