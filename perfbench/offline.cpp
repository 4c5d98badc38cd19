// Offline workloads (paper-grid, pruned-1000) and the target calibration.
//
// Both workloads are closed loops: one solve at a time, each engine in
// deterministic mode at the paper budget, so the work and the fronts of a
// run depend only on the seed and only machine speed varies.  A run
// repeats the fixed solve set in rounds until its time is used and
// reports per-solve medians over the rounds.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "construct/i1_insertion.hpp"
#include "core/search_state.hpp"
#include "core/sequential_tsmo.hpp"
#include "harness/report.hpp"
#include "moo/anytime.hpp"
#include "moo/metrics.hpp"
#include "parallel/async_tsmo.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "util/json.hpp"
#include "util/telemetry.hpp"
#include "vrptw/candidate_list.hpp"
#include "vrptw/generator.hpp"

namespace perfbench {

tsmo::RunResult drive_seq(const tsmo::Instance& inst,
                          const tsmo::TsmoParams& params, Tracer& tracer) {
  const double t0 = now_s();
  std::shared_ptr<const tsmo::CandidateList> cands;
  if (params.candidate_k > 0) {
    Span s(tracer, "vrptw.candidate_list");
    cands = tsmo::make_candidate_list(inst, params.candidate_k);
  }
  tsmo::SearchState state(inst, params, tsmo::Rng(params.seed), cands);
  tsmo::Solution init = [&] {
    Span s(tracer, "construct.i1");
    return tsmo::construct_i1_random(inst, state.rng());
  }();
  {
    Span s(tracer, "core.initialize");
    state.initialize_with(std::move(init));
  }
  while (!state.budget_exhausted()) {
    const std::int64_t remaining =
        params.max_evaluations - state.evaluations();
    const int want = static_cast<int>(
        std::min<std::int64_t>(params.neighborhood_size, remaining));
    if (want <= 0) break;
    std::vector<tsmo::Candidate> candidates;
    {
      Span s(tracer, "operators.generate");
      candidates = state.generate_candidates(want);
    }
    Span s(tracer, "core.step");
    state.step_with_candidates(candidates);
  }
  return tsmo::collect_result(state, "sequential", now_s() - t0);
}

namespace {

using tsmo::Instance;
using tsmo::Objectives;
using tsmo::RunResult;
using tsmo::TsmoParams;

/// Processors of every parallel engine: fits the 4-core budget (at most
/// three engine threads next to the benchmark thread).
constexpr int kProcessors = 3;
/// Fewest rounds a run makes, whatever its time budget, so every solve is
/// repeated (and its fingerprint compared) at least once.
constexpr int kMinRounds = 2;
/// Calibration seeds per instance.  The target is the best final anytime
/// hypervolume among them: the paper-budget quality seq reaches.  A target
/// at the median would be reached by about half the solves, and whether a
/// solve reaches it would dominate time_to_target_s from seed to seed.
constexpr int kCalibrationSeeds = 5;

/// An engine of a workload and its count of distinct seeds per instance.
/// Every solve has its own seed: quality at a fixed budget varies a lot
/// from seed to seed (one seed can leave a front at twice the distance of
/// another), so the aggregates need many independent solves to be steady
/// across seeds.
struct EngineSeeds {
  std::string engine;
  int seeds = 1;
};

struct WorkloadSpec {
  std::vector<std::string> instances;
  std::vector<EngineSeeds> engines;
  int candidate_k = 0;
};

/// paper-grid: the classes of the paper's tables (C and R) at its sizes
/// and window types (I: 400 small TW, II: 400 large TW, III: 600 small TW,
/// IV: 600 large TW), every engine.  seq gets eight seeds because the
/// timing metrics come from its solves.  pruned-1000: the six classes at
/// 1000 customers.
WorkloadSpec workload_spec(const std::string& name) {
  if (name == "paper-grid") {
    return {{"C1_4_1", "R1_4_1", "C2_4_1", "R2_4_1", "C1_6_1", "R1_6_1",
             "C2_6_1", "R2_6_1"},
            {{"seq", 8}, {"sync", 1}, {"async", 1}, {"coll", 1}},
            0};
  }
  if (name == "pruned-1000") {
    return {{"R1_10_1", "R2_10_1", "C1_10_1", "C2_10_1", "RC1_10_1",
             "RC2_10_1"},
            {{"seq", 8}},
            16};
  }
  throw std::invalid_argument("not an offline workload: " + name);
}

/// The paper budget: 100k evaluations, neighborhood 200, tenure 20,
/// archive 20, restart after 100 (TsmoParams defaults).
TsmoParams paper_params(int candidate_k, std::uint64_t seed) {
  TsmoParams p;
  p.max_evaluations = 100000;
  p.neighborhood_size = 200;
  p.tabu_tenure = 20;
  p.archive_capacity = 20;
  p.restart_after = 100;
  p.candidate_k = candidate_k;
  p.seed = seed;
  return p;
}

struct ParallelRun {
  RunResult result;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_accepted = 0;
};

/// One deterministic run() of a parallel engine at kProcessors; coll also
/// reports its MultisearchResult message counts.
ParallelRun run_parallel(const Instance& inst, const std::string& engine,
                         const TsmoParams& params) {
  ParallelRun out;
  if (engine == "sync") {
    tsmo::SyncOptions o;
    o.deterministic = true;
    out.result = tsmo::SyncTsmo(inst, params, kProcessors, o).run();
  } else if (engine == "async") {
    tsmo::AsyncOptions o;
    o.deterministic = true;
    out.result = tsmo::AsyncTsmo(inst, params, kProcessors, o).run();
  } else if (engine == "coll") {
    tsmo::MultisearchOptions o;
    o.deterministic = true;
    tsmo::MultisearchResult m =
        tsmo::MultisearchTsmo(inst, params, kProcessors, o).run();
    out.result = std::move(m.merged);
    out.messages_sent = m.messages_sent;
    out.messages_accepted = m.messages_accepted;
  } else {
    throw std::invalid_argument("unknown engine " + engine);
  }
  return out;
}

}  // namespace

Objectives initial_objectives(const Instance& inst, std::uint64_t seed) {
  tsmo::Rng rng(seed);
  tsmo::Solution s = tsmo::construct_i1_random(inst, rng);
  s.evaluate();
  return s.objectives();
}

SolveOutcome run_solve(const Instance& inst, const std::string& engine,
                       const TsmoParams& params, const Objectives& init,
                       double target) {
  SolveOutcome out;
  const double t0 = now_s();
  if (engine != "seq") {
    out.result = run_parallel(inst, engine, params).result;
    out.wall_s = now_s() - t0;
    return out;
  }
  tsmo::IncrementalHypervolume hv(tsmo::convergence_reference(inst));
  hv.add(init);
  const double c0 = thread_cpu_s();
  tsmo::SequentialTsmo seq(inst, params);
  out.result = seq.run([&](const tsmo::IterationEvent& ev) {
    if (!ev.archive_improved) return;
    hv.add(ev.current);
    if (!out.reached && hv.value() >= target) {
      out.reached = true;
      out.time_to_target_s = thread_cpu_s() - c0;
    }
  });
  out.cpu_s = thread_cpu_s() - c0;
  out.wall_s = now_s() - t0;
  out.anytime_hv = hv.value();
  if (!out.reached) out.time_to_target_s = out.cpu_s;
  return out;
}

void add_telemetry(const tsmo::telemetry::Snapshot& snap, LayerSums& s) {
  auto hist_s = [&](const char* name) {
    const auto* h = snap.find_histogram(name);
    return h ? static_cast<double>(h->sum_ns) * 1e-9 : 0.0;
  };
  auto counter = [&](const char* name) {
    const auto* c = snap.find_counter(name);
    return c ? static_cast<double>(c->value) : 0.0;
  };
  s["price_s"] += hist_s("move.price_ns");
  s["archive_insert_s"] += hist_s("archive.insert_ns");
  s["screen_checks"] += counter("move.screen_checks");
  s["screen_rejects"] += counter("move.screen_reject");
  s["worker_busy_ns"] += counter("workers.busy_ns");
  s["worker_idle_ns"] += counter("workers.idle_ns");
  s["barrier_wait_s"] += hist_s("sync.barrier_wait_ns");
  s["channel_wait_s"] += hist_s("channel.gen_requests.wait_ns");
}

void add_introspect(const RunResult& r, LayerSums& s) {
  const tsmo::IntrospectStats& is = r.introspect;
  for (auto p : is.proposed) s["proposed"] += static_cast<double>(p);
  s["tabu_hits"] += static_cast<double>(is.tabu_hits);
  s["tabu_checked"] += static_cast<double>(is.tabu_checked);
  s["restarts"] += static_cast<double>(is.restarts);
  s["archive_inserts"] += static_cast<double>(is.archive_inserts);
  s["archive_attempts"] += static_cast<double>(
      is.archive_inserts + is.archive_dominated_rejects +
      is.archive_duplicate_rejects + is.archive_crowded_rejects);
}

namespace {

/// Traced solve.  seq is driven step by step through SearchState so the
/// benchmark can put spans around construction, generation and the step;
/// the parallel engines are timed around run() and read only through the
/// telemetry registry, RunResult::introspect and MultisearchResult.
RunResult run_traced(const Instance& inst, const std::string& engine,
                     const TsmoParams& base, Tracer& tracer, LayerSums& sums,
                     double& wall_s) {
  TsmoParams params = base;
  params.telemetry = true;
  tsmo::telemetry::Registry::instance().reset();
  tsmo::telemetry::set_enabled(true);
  RunResult r;
  const double t0 = now_s();
  {
    Span s(tracer, ("parallel.solve." + engine).c_str());
    if (engine == "seq") {
      r = drive_seq(inst, params, tracer);
    } else {
      ParallelRun p = run_parallel(inst, engine, params);
      r = std::move(p.result);
      sums["messages_sent"] += static_cast<double>(p.messages_sent);
      sums["messages_accepted"] += static_cast<double>(p.messages_accepted);
    }
  }
  wall_s = now_s() - t0;
  tsmo::telemetry::set_enabled(false);
  add_telemetry(tsmo::telemetry::Registry::instance().snapshot(false), sums);
  add_introspect(r, sums);
  {
    // The harness's result writer, outside the wall time compared with
    // the untraced solve.
    Span s(tracer, "harness.result_json");
    std::ostringstream os;
    tsmo::write_run_json(os, inst, r, true);
  }
  return r;
}

// --- Targets ---------------------------------------------------------------

std::string targets_path(const Options& opt) {
  return opt.bench_dir + "/targets.json";
}

}  // namespace

std::map<std::string, double> read_targets(const Options& opt) {
  std::ifstream is(targets_path(opt));
  if (!is) {
    throw std::runtime_error("no " + targets_path(opt) +
                             ": run the calibration first (run.py "
                             "--calibrate)");
  }
  std::stringstream ss;
  ss << is.rdbuf();
  std::string err;
  const auto doc = tsmo::json_parse(ss.str(), &err);
  const tsmo::JsonValue* t = doc ? doc->find("targets") : nullptr;
  if (t == nullptr || !t->is_object()) {
    throw std::runtime_error(targets_path(opt) + " has no targets: " + err);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < t->keys().size(); ++i) {
    out[t->keys()[i]] = t->items()[i].as_double();
  }
  return out;
}

namespace {

struct Solve {
  std::size_t instance = 0;  ///< index into the built instances
  std::string engine;
  TsmoParams params;
  Objectives init;
  double target = 0.0;
  // Per-round observations (cpu and ttt: seq only).
  std::vector<double> wall, cpu, ttt, traced_wall;
  std::uint64_t fingerprint = 0;
  RunResult first;
};

}  // namespace

void run_offline(const Options& opt, Report& report, Tracer& tracer) {
  const WorkloadSpec spec = workload_spec(opt.workload);
  const std::map<std::string, double> targets = read_targets(opt);
  tracer.set_enabled(opt.trace);

  for (const std::string& name : spec.instances) {
    if (targets.find(name) == targets.end()) {
      throw std::runtime_error("no calibrated target for " + name +
                               " in " + targets_path(opt));
    }
  }
  // Set-up: every instance is built (generator + distance matrix) here,
  // and one is rebuilt before every solve, round-robin, so the
  // per-instance medians of this thread's CPU time sample the host over
  // the whole run.  One build takes about a millisecond, so a single
  // timing would be noise.
  std::vector<std::vector<double>> build_times(spec.instances.size());
  auto build = [&](std::size_t i) {
    tracer.begin_unit();
    std::optional<Instance> inst;
    const double t0 = thread_cpu_s();
    {
      Span s(tracer, "vrptw.instance_build");
      inst.emplace(tsmo::generate_named(spec.instances[i]));
    }
    build_times[i].push_back(thread_cpu_s() - t0);
    return std::move(*inst);
  };
  std::vector<Instance> instances;
  for (std::size_t i = 0; i < spec.instances.size(); ++i) {
    instances.push_back(build(i));
  }

  std::vector<Solve> solves;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (std::size_t e = 0; e < spec.engines.size(); ++e) {
      for (int k = 0; k < spec.engines[e].seeds; ++k) {
        const std::uint64_t seed =
            mix_seed(opt.seed, (i * 8 + e) * 8 + static_cast<std::size_t>(k));
        Solve s;
        s.instance = i;
        s.engine = spec.engines[e].engine;
        s.params = paper_params(spec.candidate_k, seed);
        if (s.engine == "seq") s.init = initial_objectives(instances[i], seed);
        s.target = targets.at(spec.instances[i]);
        solves.push_back(std::move(s));
      }
    }
  }

  std::vector<LayerSums> rounds_layers;
  const double start = now_s();
  int rounds = 0;
  double round_s = 0.0;
  std::vector<double> round_times, kernel_times;
  std::size_t builds = 0;
  // Another round only while it fits in the time budget (after the minimum).
  while (rounds < kMinRounds || now_s() - start + round_s <= opt.seconds) {
    const double round_start = now_s();
    LayerSums layers;
    const std::size_t first_span = tracer.size();
    for (Solve& s : solves) {
      build(builds++ % instances.size());
      kernel_times.push_back(reference_kernel_s());
      const Instance& inst = instances[s.instance];
      SolveOutcome o = run_solve(inst, s.engine, s.params, s.init, s.target);
      std::string why;
      bool ok = check_result(inst, o.result, why);
      if (ok && o.result.feasible_front().empty()) {
        // best_distance and min_vehicles average over every solve, so a
        // solve must return a feasible front member to be counted.
        ok = false;
        why = "no feasible front member";
      }
      if (rounds == 0) {
        s.fingerprint = o.result.archive_fingerprint;
      } else if (o.result.archive_fingerprint != s.fingerprint) {
        ok = false;
        why = "archive fingerprint differs between repeats";
      }
      if (!ok) {
        std::cerr << "check failed: " << inst.name() << " " << s.engine
                  << ": " << why << "\n";
      }
      report.operation(ok);
      s.wall.push_back(o.wall_s);
      if (s.engine == "seq") {
        s.cpu.push_back(o.cpu_s);
        s.ttt.push_back(o.time_to_target_s);
      }
      if (rounds == 0) s.first = std::move(o.result);
      if (opt.trace) {
        tracer.begin_unit();
        double wall = 0.0;
        const RunResult tr =
            run_traced(inst, s.engine, s.params, tracer, layers, wall);
        s.traced_wall.push_back(wall);
        const bool same = tr.archive_fingerprint == s.fingerprint;
        if (!same) {
          std::cerr << "check failed: traced " << inst.name() << " "
                    << s.engine << " fingerprint "
                    << hex64(tr.archive_fingerprint) << " differs from run() "
                    << hex64(s.fingerprint) << "\n";
        }
        report.operation(same);
      }
    }
    if (opt.trace) {
      for (const auto& [name, lt] :
           tracer.layer_times(first_span, tracer.size())) {
        layers["span." + name] = lt.total_s;
      }
      rounds_layers.push_back(std::move(layers));
    }
    ++rounds;
    round_s = now_s() - round_start;
    round_times.push_back(round_s);
  }

  // Per-solve summary with fingerprints, so a change that alters search
  // behaviour shows in the output.  The timing metrics come from the seq
  // solves' CPU time; the parallel engines' wall times are listed only.
  std::printf("%-9s %-6s %-18s %9s %9s %9s %8s %10s %4s\n", "instance",
              "engine", "archive_fp", "wall_s", "cpu_s", "ttt_cpu_s",
              "hv/tgt", "best_dist", "veh");
  double evals = 0.0, cpu_sum = 0.0, ttt_sum = 0.0, log_hv = 0.0;
  double dist_sum = 0.0, veh_sum = 0.0;
  std::size_t timed = 0;
  for (const Solve& s : solves) {
    const Instance& inst = instances[s.instance];
    const double hv = tsmo::hypervolume(s.first.front,
                                        tsmo::convergence_reference(inst));
    log_hv += std::log(hv / s.target);
    dist_sum += s.first.best_feasible_distance();
    veh_sum += s.first.best_feasible_vehicles();
    std::printf("%-9s %-6s %-18s %9.4f", inst.name().c_str(),
                s.engine.c_str(), hex64(s.fingerprint).c_str(),
                median(s.wall));
    if (s.engine == "seq") {
      ++timed;
      evals += static_cast<double>(s.first.evaluations);
      cpu_sum += median(s.cpu);
      ttt_sum += median(s.ttt);
      std::printf(" %9.4f %9.4f", median(s.cpu), median(s.ttt));
    } else {
      std::printf(" %9s %9s", "-", "-");
    }
    std::printf(" %8.4f %10.2f %4d\n", hv / s.target,
                s.first.best_feasible_distance(),
                s.first.best_feasible_vehicles());
  }
  double build_s = 0.0;
  std::vector<double> build_medians;
  for (const std::vector<double>& t : build_times) {
    build_medians.push_back(median(t));
    build_s += build_medians.back();
  }
  const double scale = reference_scale(kernel_times);
  const std::size_t n = solves.size();
  std::printf("rounds: %d of %zu solves, round seconds:", rounds, n);
  for (double t : round_times) std::printf(" %.2f", t);
  std::printf("; instance build medians (CPU s):");
  for (double b : build_medians) std::printf(" %.4f", b);
  std::printf("\nreference kernel: median %.6f CPU s over %zu runs, scale "
              "%.4f\n",
              median(kernel_times), kernel_times.size(), scale);

  if (!opt.trace) {
    const std::size_t samples = timed * static_cast<std::size_t>(rounds);
    report.add("setup_s", build_s * scale, "s", instances.size() + builds);
    report.add("evals_per_s", evals / (cpu_sum * scale), "1/s", samples);
    report.add("time_to_target_s", ttt_sum * scale, "s", samples);
    report.add("hv_ratio", std::exp(log_hv / static_cast<double>(n)),
               "ratio", n);
    report.add("best_distance", dist_sum / static_cast<double>(n),
               "distance", n);
    report.add("min_vehicles", veh_sum / static_cast<double>(n), "vehicles",
               n);
    report.add("success_ratio",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "ratio", static_cast<std::size_t>(report.attempted));
    report.add("peak_rss_mb", self_peak_rss_mb(), "MB", 1);
    return;
  }

  // Traced run: per-layer metrics as medians over the traced rounds.
  const std::size_t r = rounds_layers.size();
  auto layer = [&](const std::string& key) {
    std::vector<double> v;
    for (const LayerSums& l : rounds_layers) {
      const auto it = l.find(key);
      v.push_back(it == l.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  auto ratio = [&](const std::string& num, const std::string& den) {
    std::vector<double> v;
    for (const LayerSums& l : rounds_layers) {
      const auto a = l.find(num), b = l.find(den);
      if (a != l.end() && b != l.end() && b->second > 0.0) {
        v.push_back(a->second / b->second);
      }
    }
    return median(v);
  };
  report.add("bench.reference_kernel_s", median(kernel_times), "s",
             kernel_times.size());
  report.add("vrptw.instance_build_s", build_s, "s",
             instances.size() + builds);
  report.add("construct.i1_s", layer("span.construct.i1"), "s", r);
  report.add("operators.generate_s", layer("span.operators.generate"), "s",
             r);
  report.add("operators.price_s", layer("price_s"), "s", r);
  report.add("operators.screen_pass_ratio",
             1.0 - ratio("screen_rejects", "screen_checks"), "ratio", r);
  report.add("operators.proposed", layer("proposed"), "count", r);
  report.add("core.step_s", layer("span.core.step"), "s", r);
  report.add("core.tabu_hit_ratio", ratio("tabu_hits", "tabu_checked"),
             "ratio", r);
  report.add("core.restarts", layer("restarts"), "count", r);
  report.add("moo.archive_insert_s", layer("archive_insert_s"), "s", r);
  report.add("moo.archive_accept_ratio",
             ratio("archive_inserts", "archive_attempts"), "ratio", r);
  report.add("parallel.solve_s.seq", layer("span.parallel.solve.seq"), "s",
             r);
  report.add("harness.result_json_s", layer("span.harness.result_json"), "s",
             r);
  double traced = 0.0, untraced = 0.0;
  for (const Solve& s : solves) {
    traced += median(s.traced_wall);
    untraced += median(s.wall);
  }
  report.add("bench.tracing_overhead_ratio", traced / untraced, "ratio",
             n * r);

  // Layers only this workload runs.
  if (spec.candidate_k > 0) {
    report.detail("vrptw.candidate_list_s",
                  layer("span.vrptw.candidate_list"), "s", r);
  }
  for (const EngineSeeds& e : spec.engines) {
    if (e.engine == "seq") continue;
    report.detail("parallel.solve_s." + e.engine,
                  layer("span.parallel.solve." + e.engine), "s", r);
  }
  if (layer("worker_busy_ns") > 0.0) {
    std::vector<double> v;
    for (const LayerSums& l : rounds_layers) {
      const double busy = l.at("worker_busy_ns"), idle = l.at("worker_idle_ns");
      v.push_back(busy / (busy + idle));
    }
    report.detail("parallel.worker_busy_ratio", median(v), "ratio", r);
    report.detail("parallel.barrier_wait_s", layer("barrier_wait_s"), "s", r);
    report.detail("parallel.channel_wait_s", layer("channel_wait_s"), "s", r);
  }
  if (layer("messages_sent") > 0.0) {
    report.detail("parallel.messages_sent", layer("messages_sent"), "count",
                  r);
    report.detail("parallel.messages_accepted", layer("messages_accepted"),
                  "count", r);
  }
}

// --- Calibration -----------------------------------------------------------

int run_calibrate(const Options& opt, const std::string& commit) {
  std::vector<std::string> names = jobs_open_instances();
  for (const char* w : {"paper-grid", "pruned-1000"}) {
    for (const std::string& n : workload_spec(w).instances) {
      names.push_back(n);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::map<std::string, double> targets;
  for (const std::string& name : names) {
    const Instance inst = tsmo::generate_named(name);
    std::vector<double> hvs;
    for (int c = 1; c <= kCalibrationSeeds; ++c) {
      const auto seed = static_cast<std::uint64_t>(c);
      const TsmoParams p = paper_params(0, seed);
      const SolveOutcome o = run_solve(inst, "seq", p,
                                       initial_objectives(inst, seed),
                                       /*target=*/INFINITY);
      hvs.push_back(o.anytime_hv);
      std::printf("%-9s seed %d: anytime hv %.6e, wall %.3f s\n",
                  name.c_str(), c, o.anytime_hv, o.wall_s);
    }
    targets[name] = *std::max_element(hvs.begin(), hvs.end());
  }
  std::ofstream os(targets_path(opt));
  os << "{\n  \"commit\": \"" << commit << "\",\n"
     << "  \"method\": \"maximum over seeds 1-" << kCalibrationSeeds
     << " of the final anytime hypervolume (against convergence_reference) "
        "of deterministic seq, uniform sampling (candidate_k 0), paper "
        "budget\",\n  \"targets\": {";
  bool first = true;
  for (const auto& [name, hv] : targets) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", hv);
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << buf;
    first = false;
  }
  os << "\n  }\n}\n";
  if (!os) {
    std::cerr << "cannot write " << targets_path(opt) << "\n";
    return 1;
  }
  std::printf("wrote %s\n", targets_path(opt).c_str());
  return 0;
}

}  // namespace perfbench
