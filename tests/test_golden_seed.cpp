// Golden-seed determinism regression (DESIGN.md §7): for every engine the
// traced decision fingerprint and the canonical archive fingerprint must be
// a pure function of (params, logical processors) — in particular identical
// across 1/2/4 execution threads for the deterministic parallel modes.
//
// The values themselves are pinned in tests/golden/golden_seed_fingerprints.txt
// (sorted "<key> <hex>" lines): a changed value, a checked key the file
// lacks, or a pinned key no test checks fails the suite.  The last check
// needs every test of this binary in one process; ctest runs the binary
// whole as GoldenSeedPinned.AllKeysChecked.
//
// When the environment variable TSMO_GOLDEN_OUT names a file, every
// asserted fingerprint is appended to it ("<key> <hex>"), so CI can upload
// the values as an artifact and diff them across runs and platforms.  A
// change that is meant to move the search regenerates the pinned file:
//
//   rm -f /tmp/g.txt
//   TSMO_GOLDEN_OUT=/tmp/g.txt ./build/tests/test_golden_seed
//   sort /tmp/g.txt > tests/golden/golden_seed_fingerprints.txt
//
// and says in its change notes why every fingerprint moved.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sequential_tsmo.hpp"
#include "moo/anytime.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "obs/obs_server.hpp"
#include "parallel/async_tsmo.hpp"
#include "parallel/hybrid_tsmo.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "sim/sim_tsmo.hpp"
#include "util/profiler.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

constexpr std::uint64_t kSeeds[] = {7, 101};
constexpr int kExecWidths[] = {1, 2, 4};

Instance small_instance() {
  GeneratorConfig config;
  config.num_customers = 40;
  config.spatial = SpatialClass::Random;
  config.horizon = HorizonClass::Short;
  config.seed = 5;
  config.name = "golden_R1_40";
  return generate_instance(config);
}

TsmoParams golden_params(std::uint64_t seed) {
  TsmoParams p;
  p.max_evaluations = 1200;
  p.neighborhood_size = 40;
  p.restart_after = 15;
  p.trace = true;
  p.seed = seed;
  return p;
}

void export_fingerprint(const std::string& key, std::uint64_t fp) {
  const char* path = std::getenv("TSMO_GOLDEN_OUT");
  if (!path) return;
  std::ofstream out(path, std::ios::app);
  out << key << " " << std::hex << fp << std::dec << "\n";
}

/// The pinned fingerprints, keyed like the export.
const std::map<std::string, std::uint64_t>& pinned() {
  static const std::map<std::string, std::uint64_t> values = [] {
    std::map<std::string, std::uint64_t> out;
    std::ifstream in(TSMO_GOLDEN_PINNED);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string key;
      std::uint64_t fp = 0;
      if (fields >> key >> std::hex >> fp) out[key] = fp;
    }
    return out;
  }();
  return values;
}

/// Keys checked against the pinned file in this process.
std::set<std::string>& checked_keys() {
  static std::set<std::string> keys;
  return keys;
}

void expect_pinned(const std::string& key, std::uint64_t fp) {
  export_fingerprint(key, fp);
  checked_keys().insert(key);
  const auto it = pinned().find(key);
  if (it == pinned().end()) {
    ADD_FAILURE() << key << " " << std::hex << fp
                  << " is not in " TSMO_GOLDEN_PINNED;
    return;
  }
  EXPECT_EQ(it->second, fp)
      << key << " changed: pinned " << std::hex << it->second << ", got "
      << fp;
}

/// After a whole-binary run, every pinned key must have been checked.
class PinnedKeysEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    const auto& unit = *::testing::UnitTest::GetInstance();
    if (unit.test_to_run_count() != unit.total_test_count()) return;
    EXPECT_FALSE(pinned().empty()) << "no fingerprints in " TSMO_GOLDEN_PINNED;
    for (const auto& [key, fp] : pinned()) {
      EXPECT_EQ(checked_keys().count(key), 1u)
          << key << " is pinned but no test checks it";
    }
  }
};

const auto* const kPinnedKeysEnvironment =
    ::testing::AddGlobalTestEnvironment(new PinnedKeysEnvironment);

/// Asserts that all runs of one configuration agree on both fingerprints
/// and that the common values are the pinned ones.
void expect_identical(const std::vector<RunResult>& runs,
                      const std::string& key) {
  ASSERT_FALSE(runs.empty());
  for (const RunResult& r : runs) {
    ASSERT_FALSE(r.front.empty()) << key;
    EXPECT_NE(r.trace_fingerprint, 0u) << key << " (tracing was on)";
    EXPECT_EQ(r.trace_fingerprint, runs.front().trace_fingerprint) << key;
    EXPECT_EQ(r.archive_fingerprint, runs.front().archive_fingerprint)
        << key;
    EXPECT_EQ(r.front, runs.front().front) << key;
    EXPECT_EQ(r.evaluations, runs.front().evaluations) << key;
    EXPECT_EQ(r.iterations, runs.front().iterations) << key;
  }
  expect_pinned(key + ".trace", runs.front().trace_fingerprint);
  expect_pinned(key + ".archive", runs.front().archive_fingerprint);
}

std::uint64_t time_bits(double seconds) {
  return std::bit_cast<std::uint64_t>(seconds);
}

/// Pins the virtual runtime of each searcher of a simulated
/// collaborative run.
void expect_searcher_times(const MultisearchResult& result,
                           const std::string& key) {
  for (std::size_t i = 0; i < result.per_searcher.size(); ++i) {
    expect_pinned(key + ".searcher" + std::to_string(i) + ".sim_seconds",
                  time_bits(result.per_searcher[i].sim_seconds));
  }
}

class GoldenSeedTest : public ::testing::Test {
 protected:
  GoldenSeedTest() : inst_(small_instance()) {}
  Instance inst_;
};

TEST_F(GoldenSeedTest, SequentialReplaysExactly) {
  for (std::uint64_t seed : kSeeds) {
    std::vector<RunResult> runs;
    for (int rep = 0; rep < 2; ++rep) {
      runs.push_back(SequentialTsmo(inst_, golden_params(seed)).run());
    }
    expect_identical(runs, "sequential.seed" + std::to_string(seed));
  }
}

TEST_F(GoldenSeedTest, SyncDeterministicInvariantAcrossWorkers) {
  for (std::uint64_t seed : kSeeds) {
    std::vector<RunResult> runs;
    for (int exec : kExecWidths) {
      SyncOptions options;
      options.deterministic = true;
      options.exec_threads = exec;
      runs.push_back(SyncTsmo(inst_, golden_params(seed), 4, options).run());
    }
    expect_identical(runs, "sync-det.seed" + std::to_string(seed));
  }
}

TEST_F(GoldenSeedTest, AsyncDeterministicInvariantAcrossWorkers) {
  for (std::uint64_t seed : kSeeds) {
    std::vector<RunResult> runs;
    for (int exec : kExecWidths) {
      AsyncOptions options;
      options.deterministic = true;
      options.exec_threads = exec;
      runs.push_back(
          AsyncTsmo(inst_, golden_params(seed), 4, options).run());
    }
    expect_identical(runs, "async-det.seed" + std::to_string(seed));
  }
}

TEST_F(GoldenSeedTest, MultisearchDeterministicInvariantAcrossThreads) {
  for (std::uint64_t seed : kSeeds) {
    std::vector<RunResult> merged;
    std::vector<MultisearchResult> full;
    for (int exec : kExecWidths) {
      MultisearchOptions options;
      options.deterministic = true;
      options.exec_threads = exec;
      full.push_back(
          MultisearchTsmo(inst_, golden_params(seed), 3, options).run());
      merged.push_back(full.back().merged);
    }
    expect_identical(merged, "coll-det.seed" + std::to_string(seed));
    for (const MultisearchResult& r : full) {
      EXPECT_EQ(r.messages_sent, full.front().messages_sent);
      EXPECT_EQ(r.messages_accepted, full.front().messages_accepted);
      ASSERT_EQ(r.per_searcher.size(), full.front().per_searcher.size());
      for (std::size_t i = 0; i < r.per_searcher.size(); ++i) {
        EXPECT_EQ(r.per_searcher[i].trace_fingerprint,
                  full.front().per_searcher[i].trace_fingerprint);
      }
    }
  }
}

TEST_F(GoldenSeedTest, HybridDeterministicInvariantAcrossThreads) {
  for (std::uint64_t seed : kSeeds) {
    std::vector<RunResult> merged;
    for (int exec : kExecWidths) {
      HybridOptions options;
      options.deterministic = true;
      options.exec_threads = exec;
      merged.push_back(
          HybridTsmo(inst_, golden_params(seed), 2, 2, options).run().merged);
    }
    expect_identical(merged, "hybrid-det.seed" + std::to_string(seed));
  }
}

/// The convergence recorder is pure observation (DESIGN.md §9): attaching
/// it must leave both fingerprints bitwise identical for every engine.
TEST_F(GoldenSeedTest, RecorderOnOffFingerprintsIdentical) {
  const std::uint64_t seed = kSeeds[0];
  ConvergenceConfig cc;
  cc.reference = convergence_reference(inst_);
  cc.sample_every_iters = 5;

  {
    ConvergenceRecorder rec(cc);
    RunContext on;
    on.recorder = &rec;
    expect_identical({SequentialTsmo(inst_, golden_params(seed)).run(),
                      SequentialTsmo(inst_, golden_params(seed), on).run()},
                     "sequential.recorder.seed" + std::to_string(seed));
    EXPECT_FALSE(rec.samples().empty());
    EXPECT_FALSE(rec.insertions().empty());
  }
  {
    ConvergenceRecorder rec(cc);
    SyncOptions det;
    det.deterministic = true;
    RunContext on;
    on.recorder = &rec;
    expect_identical({SyncTsmo(inst_, golden_params(seed), 4, det).run(),
                      SyncTsmo(inst_, golden_params(seed), 4, det, on).run()},
                     "sync-det.recorder.seed" + std::to_string(seed));
    EXPECT_FALSE(rec.samples().empty());
  }
  {
    ConvergenceRecorder rec(cc);
    AsyncOptions det;
    det.deterministic = true;
    RunContext on;
    on.recorder = &rec;
    expect_identical(
        {AsyncTsmo(inst_, golden_params(seed), 4, det).run(),
         AsyncTsmo(inst_, golden_params(seed), 4, det, on).run()},
        "async-det.recorder.seed" + std::to_string(seed));
  }
  {
    ConvergenceRecorder rec(cc);
    MultisearchOptions det;
    det.deterministic = true;
    RunContext on;
    on.recorder = &rec;
    expect_identical(
        {MultisearchTsmo(inst_, golden_params(seed), 3, det).run().merged,
         MultisearchTsmo(inst_, golden_params(seed), 3, det, on).run().merged},
        "coll-det.recorder.seed" + std::to_string(seed));
  }
  {
    ConvergenceRecorder rec(cc);
    HybridOptions det;
    det.deterministic = true;
    RunContext on;
    on.recorder = &rec;
    expect_identical(
        {HybridTsmo(inst_, golden_params(seed), 2, 2, det).run().merged,
         HybridTsmo(inst_, golden_params(seed), 2, 2, det, on).run().merged},
        "hybrid-det.recorder.seed" + std::to_string(seed));
  }
}

/// The operational plane (DESIGN.md §10) is pure observation as well: an
/// enabled flight recorder plus a live ObsServer being scraped while the
/// engine runs must leave both fingerprints bitwise identical.
TEST_F(GoldenSeedTest, ServeAndFlightRecorderFingerprintsIdentical) {
  const std::uint64_t seed = kSeeds[0];

  // Baselines with the whole operational plane off.
  AsyncOptions async_off;
  async_off.deterministic = true;
  const RunResult async_base =
      AsyncTsmo(inst_, golden_params(seed), 4, async_off).run();
  SyncOptions sync_off;
  sync_off.deterministic = true;
  const RunResult sync_base =
      SyncTsmo(inst_, golden_params(seed), 4, sync_off).run();

  // Same runs with the flight recorder on and a scraper hammering the
  // /metrics and /status endpoints of a recorder-attached server.
  const bool was = obs::FlightRecorder::set_enabled(true);
  obs::FlightRecorder::instance().reset();
  ConvergenceConfig cc;
  cc.reference = convergence_reference(inst_);
  cc.sample_every_iters = 5;
  ConvergenceRecorder rec(cc);
  obs::FlightRecorder::instance().set_heartbeat_board(&rec.board());
  obs::ObsServer server;
  ASSERT_TRUE(server.start()) << server.reason();
  server.set_recorder(&rec);

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      obs::http_get(server.port(), "/metrics");
      obs::http_get(server.port(), "/status");
      obs::http_get(server.port(), "/healthz");
    }
  });

  RunContext on;
  on.recorder = &rec;
  const RunResult async_instrumented =
      AsyncTsmo(inst_, golden_params(seed), 4, async_off, on).run();
  const RunResult sync_instrumented =
      SyncTsmo(inst_, golden_params(seed), 4, sync_off, on).run();

  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(server.scrapes(), 0u);
  EXPECT_GT(obs::FlightRecorder::instance().recorded(), 0u);
  server.set_recorder(nullptr);
  server.stop();
  obs::FlightRecorder::instance().set_heartbeat_board(nullptr);
  obs::FlightRecorder::instance().reset();
  obs::FlightRecorder::set_enabled(was);

  expect_identical({async_base, async_instrumented},
                   "async-det.obs.seed" + std::to_string(seed));
  expect_identical({sync_base, sync_instrumented},
                   "sync-det.obs.seed" + std::to_string(seed));
}

/// Pruned sampling (candidate_k > 0) draws from a different move stream
/// than legacy uniform sampling, but it must still be a pure function of
/// (params, logical processors): identical across 1/2/4 execution threads
/// for every deterministic engine, and repeatable sequentially.
TEST_F(GoldenSeedTest, PrunedModeDeterministicAcrossWidths) {
  const auto pruned_params = [&](std::uint64_t seed) {
    TsmoParams p = golden_params(seed);
    p.candidate_k = 16;
    return p;
  };
  for (std::uint64_t seed : kSeeds) {
    const TsmoParams p = pruned_params(seed);
    {
      std::vector<RunResult> runs;
      for (int rep = 0; rep < 2; ++rep) {
        runs.push_back(SequentialTsmo(inst_, p).run());
      }
      expect_identical(runs, "sequential.pruned.seed" + std::to_string(seed));
      // The pruned stream really is a different trajectory than legacy.
      EXPECT_NE(runs.front().trace_fingerprint,
                SequentialTsmo(inst_, golden_params(seed)).run()
                    .trace_fingerprint);
    }
    {
      std::vector<RunResult> runs;
      for (int exec : kExecWidths) {
        SyncOptions options;
        options.deterministic = true;
        options.exec_threads = exec;
        runs.push_back(SyncTsmo(inst_, p, 4, options).run());
      }
      expect_identical(runs, "sync-det.pruned.seed" + std::to_string(seed));
    }
    {
      std::vector<RunResult> runs;
      for (int exec : kExecWidths) {
        AsyncOptions options;
        options.deterministic = true;
        options.exec_threads = exec;
        runs.push_back(AsyncTsmo(inst_, p, 4, options).run());
      }
      expect_identical(runs, "async-det.pruned.seed" + std::to_string(seed));
    }
    {
      std::vector<RunResult> runs;
      for (int exec : kExecWidths) {
        MultisearchOptions options;
        options.deterministic = true;
        options.exec_threads = exec;
        runs.push_back(MultisearchTsmo(inst_, p, 3, options).run().merged);
      }
      expect_identical(runs, "coll-det.pruned.seed" + std::to_string(seed));
    }
    {
      std::vector<RunResult> runs;
      for (int exec : kExecWidths) {
        HybridOptions options;
        options.deterministic = true;
        options.exec_threads = exec;
        runs.push_back(HybridTsmo(inst_, p, 2, 2, options).run().merged);
      }
      expect_identical(runs, "hybrid-det.pruned.seed" + std::to_string(seed));
    }
  }
}

/// The §III.E exchange: with restart_after = 5 the searchers leave their
/// initial phase early enough to send, so these pins hold the send rule
/// and the lock-step routing (coll-det, hybrid-det, across 1/2/4
/// execution threads) and the DES delivery (sim-coll, sim-hybrid).
TEST_F(GoldenSeedTest, ExchangePinnedAcrossEngines) {
  const CostModel cost = CostModel::for_instance(inst_);
  for (int candidate_k : {0, 16}) {
    const std::string variant =
        candidate_k == 0 ? ".exchange" : ".exchange.pruned";
    for (std::uint64_t seed : kSeeds) {
      TsmoParams p = golden_params(seed);
      p.restart_after = 5;
      p.candidate_k = candidate_k;
      const std::string suffix = variant + ".seed" + std::to_string(seed);
      // Every run of one configuration sends the same messages; with
      // uniform sampling they must send some.
      const auto expect_exchange =
          [&](const std::vector<MultisearchResult>& full,
              const std::string& key) {
            std::vector<RunResult> merged;
            for (const MultisearchResult& r : full) {
              EXPECT_EQ(r.messages_sent, full.front().messages_sent) << key;
              EXPECT_EQ(r.messages_accepted, full.front().messages_accepted)
                  << key;
              merged.push_back(r.merged);
            }
            if (candidate_k == 0) {
              EXPECT_GT(full.front().messages_sent, 0) << key;
            }
            expect_identical(merged, key);
          };
      {
        std::vector<MultisearchResult> full;
        for (int exec : kExecWidths) {
          MultisearchOptions options;
          options.deterministic = true;
          options.exec_threads = exec;
          full.push_back(MultisearchTsmo(inst_, p, 3, options).run());
        }
        expect_exchange(full, "coll-det" + suffix);
      }
      {
        std::vector<MultisearchResult> full;
        for (int exec : kExecWidths) {
          HybridOptions options;
          options.deterministic = true;
          options.exec_threads = exec;
          full.push_back(HybridTsmo(inst_, p, 2, 2, options).run());
        }
        expect_exchange(full, "hybrid-det" + suffix);
      }
      const MultisearchResult coll = run_sim_multisearch(inst_, p, 3, cost);
      expect_exchange({coll, run_sim_multisearch(inst_, p, 3, cost)},
                      "sim-coll" + suffix);
      expect_searcher_times(coll, "sim-coll" + suffix);
      const MultisearchResult hybrid = run_sim_hybrid(inst_, p, 2, 2, cost);
      expect_exchange({hybrid, run_sim_hybrid(inst_, p, 2, 2, cost)},
                      "sim-hybrid" + suffix);
      expect_searcher_times(hybrid, "sim-hybrid" + suffix);
    }
  }
}

/// The virtual clock (DESIGN.md §4): sim-sync and sim-async at P = 3 for
/// both sampling modes, the decision-function ablation, the Fig. 1
/// observer's events, and the bits of each simulated runtime.  A change
/// to what the DES charges, or in which order it sums, shows here.
TEST_F(GoldenSeedTest, VirtualClockPinned) {
  const CostModel cost = CostModel::for_instance(inst_);
  const auto expect_replay = [&](const std::function<RunResult()>& run,
                                 const std::string& key) {
    const RunResult first = run();
    const RunResult second = run();
    EXPECT_EQ(time_bits(first.sim_seconds), time_bits(second.sim_seconds))
        << key;
    expect_identical({first, second}, key);
    expect_pinned(key + ".sim_seconds", time_bits(first.sim_seconds));
  };
  for (int candidate_k : {0, 16}) {
    const std::string variant = candidate_k == 0 ? "" : ".pruned";
    for (std::uint64_t seed : kSeeds) {
      TsmoParams p = golden_params(seed);
      p.candidate_k = candidate_k;
      const std::string suffix = variant + ".seed" + std::to_string(seed);
      expect_replay([&] { return run_sim_sync(inst_, p, 3, cost); },
                    "sim-sync" + suffix);
      expect_replay([&] { return run_sim_async(inst_, p, 3, cost); },
                    "sim-async" + suffix);
    }
  }

  const TsmoParams p = golden_params(kSeeds[0]);
  const int chunk = p.neighborhood_size / 3;
  expect_replay(
      [&] {
        SimAsyncOptions ablation;
        ablation.use_c1 = false;
        ablation.use_c2 = false;
        ablation.wait_too_long_us = 2.0 * chunk * cost.eval_us;
        return run_sim_async(inst_, p, 3, cost, ablation);
      },
      "sim-async.ablation.seed" + std::to_string(kSeeds[0]));

  std::uint64_t events = 0;
  std::int64_t count = 0;
  SimAsyncOptions observed;
  observed.observer = [&](const SimAsyncIterationEvent& ev) {
    std::uint64_t h = hash_combine(events, static_cast<std::uint64_t>(
                                               ev.iteration));
    h = hash_combine(h, time_bits(ev.virtual_time_s));
    for (const Objectives& o : ev.pool) h = hash_combine(h, hash_objectives(o));
    h = hash_combine(h, hash_objectives(ev.selected));
    events = hash_combine(h, ev.restarted ? 1 : 0);
    ++count;
  };
  const RunResult run = run_sim_async(inst_, p, 3, cost, observed);
  EXPECT_EQ(count, run.iterations);
  const std::string key =
      "sim-async.observer.seed" + std::to_string(kSeeds[0]);
  expect_pinned(key + ".events", events);
  expect_pinned(key + ".sim_seconds", time_bits(run.sim_seconds));
}

/// The sampling profiler and the introspection plane (DESIGN.md §14) are
/// pure observation: arming SIGPROF sampling and publishing per-operator
/// rates must leave every fingerprint bitwise identical to the bare run —
/// for every engine, across 1/2/4 execution threads.
TEST_F(GoldenSeedTest, ProfilerAndIntrospectOnOffFingerprintsIdentical) {
  const std::uint64_t seed = kSeeds[0];
  const TsmoParams params = golden_params(seed);
  LiveIntrospect hub("golden");
  RunContext observed;
  observed.introspect = &hub;
  observed.profile_hz = 199;  // off the default 99 to prove the knob works

  {
    std::vector<RunResult> runs;
    runs.push_back(SequentialTsmo(inst_, params).run());
    runs.push_back(SequentialTsmo(inst_, params, observed).run());
    // The observed run actually collected something.
    EXPECT_GT(runs.back().introspect.steps, 0u);
    EXPECT_GT(runs.back().introspect.total_proposed(), 0u);
    expect_identical(runs, "sequential.profiled.seed" + std::to_string(seed));
  }
  {
    std::vector<RunResult> runs;
    SyncOptions off;
    off.deterministic = true;
    runs.push_back(SyncTsmo(inst_, params, 4, off).run());
    for (int exec : kExecWidths) {
      SyncOptions on;
      on.deterministic = true;
      on.exec_threads = exec;
      runs.push_back(SyncTsmo(inst_, params, 4, on, observed).run());
    }
    expect_identical(runs, "sync-det.profiled.seed" + std::to_string(seed));
  }
  {
    std::vector<RunResult> runs;
    AsyncOptions off;
    off.deterministic = true;
    runs.push_back(AsyncTsmo(inst_, params, 4, off).run());
    for (int exec : kExecWidths) {
      AsyncOptions on;
      on.deterministic = true;
      on.exec_threads = exec;
      runs.push_back(AsyncTsmo(inst_, params, 4, on, observed).run());
    }
    expect_identical(runs, "async-det.profiled.seed" + std::to_string(seed));
  }
  {
    std::vector<RunResult> runs;
    MultisearchOptions off;
    off.deterministic = true;
    runs.push_back(MultisearchTsmo(inst_, params, 3, off).run().merged);
    for (int exec : kExecWidths) {
      MultisearchOptions on;
      on.deterministic = true;
      on.exec_threads = exec;
      runs.push_back(
          MultisearchTsmo(inst_, params, 3, on, observed).run().merged);
    }
    EXPECT_GT(runs.back().introspect.steps, 0u);
    expect_identical(runs, "coll-det.profiled.seed" + std::to_string(seed));
  }
  {
    std::vector<RunResult> runs;
    HybridOptions off;
    off.deterministic = true;
    runs.push_back(HybridTsmo(inst_, params, 2, 2, off).run().merged);
    for (int exec : kExecWidths) {
      HybridOptions on;
      on.deterministic = true;
      on.exec_threads = exec;
      runs.push_back(
          HybridTsmo(inst_, params, 2, 2, on, observed).run().merged);
    }
    expect_identical(runs, "hybrid-det.profiled.seed" + std::to_string(seed));
  }
  prof::stop();  // disarm so later suites see the default state
}

/// Different seeds must not collide — otherwise the fingerprint could not
/// distinguish divergent runs in the first place.
TEST_F(GoldenSeedTest, DistinctSeedsDistinctFingerprints) {
  const RunResult a = SequentialTsmo(inst_, golden_params(kSeeds[0])).run();
  const RunResult b = SequentialTsmo(inst_, golden_params(kSeeds[1])).run();
  EXPECT_NE(a.trace_fingerprint, b.trace_fingerprint);
}

}  // namespace
}  // namespace tsmo
