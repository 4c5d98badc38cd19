// google-benchmark microbenchmarks of solution evaluation: full vs.
// incremental route re-evaluation, delta vs. full move evaluation, the
// permutation codec, archive inserts and the crowding computation.
//
// Besides the google-benchmark suite, the binary ends by timing
// MoveEngine::evaluate (delta) against evaluate_full per move type and
// writing a speedup record to bench_results/delta_eval_speedup.json
// (pass a path as the first positional argument to redirect it).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "construct/i1_insertion.hpp"
#include "core/search_state.hpp"
#include "evolutionary/crossover.hpp"
#include "moo/anytime.hpp"
#include "moo/archive.hpp"
#include "moo/metrics.hpp"
#include "operators/local_search.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"
#include "vrptw/generator.hpp"
#include "vrptw/schedule.hpp"
#include "vrptw/solution.hpp"

namespace {

using namespace tsmo;

const Instance& instance_for(int customers) {
  static Instance i100 = generate_named("C1_1_1");
  static Instance i400 = generate_named("C1_4_1");
  static Instance i600 = generate_named("C1_6_1");
  switch (customers) {
    case 100:
      return i100;
    case 400:
      return i400;
    default:
      return i600;
  }
}

void BM_FullEvaluation(benchmark::State& state) {
  const Instance& inst = instance_for(static_cast<int>(state.range(0)));
  Rng rng(3);
  Solution s = construct_i1_random(inst, rng);
  for (auto _ : state) {
    // Touch every route so evaluate() recomputes the whole solution.
    for (int r = 0; r < s.num_routes(); ++r) s.mutable_route(r);
    s.evaluate();
    benchmark::DoNotOptimize(s.objectives());
  }
}
BENCHMARK(BM_FullEvaluation)->Arg(100)->Arg(400)->Arg(600)->ArgName("n");

void BM_IncrementalEvaluation(benchmark::State& state) {
  const Instance& inst = instance_for(static_cast<int>(state.range(0)));
  Rng rng(3);
  Solution s = construct_i1_random(inst, rng);
  int r = 0;
  for (auto _ : state) {
    while (s.route(r).empty()) r = (r + 1) % s.num_routes();
    s.mutable_route(r);  // dirty one route only
    s.evaluate();
    benchmark::DoNotOptimize(s.objectives());
    r = (r + 1) % s.num_routes();
  }
}
BENCHMARK(BM_IncrementalEvaluation)
    ->Arg(100)
    ->Arg(400)
    ->Arg(600)
    ->ArgName("n");

/// Draws `count` random applicable moves of type `t` on `s`.
std::vector<Move> sample_moves(const MoveEngine& engine, const Solution& s,
                               MoveType t, int count, Rng& rng) {
  std::vector<Move> moves;
  moves.reserve(static_cast<std::size_t>(count));
  const int R = s.num_routes();
  while (static_cast<int>(moves.size()) < count) {
    const int r1 = static_cast<int>(rng.below(static_cast<std::uint64_t>(R)));
    const int r2 = static_cast<int>(rng.below(static_cast<std::uint64_t>(R)));
    const auto span1 = static_cast<std::uint64_t>(s.route(r1).size()) + 2;
    const auto span2 = static_cast<std::uint64_t>(s.route(r2).size()) + 2;
    Move m{t, r1, r2, static_cast<int>(rng.below(span1)) - 1,
           static_cast<int>(rng.below(span2)) - 1};
    if (t == MoveType::TwoOpt || t == MoveType::OrOpt) m.r2 = m.r1;
    if (engine.applicable(s, m)) moves.push_back(m);
  }
  return moves;
}

/// Delta move evaluation against the base's route caches — the hot path of
/// neighborhood sampling.  Arg0 = instance size, Arg1 = MoveType index.
void BM_DeltaMoveEvaluate(benchmark::State& state) {
  const Instance& inst = instance_for(static_cast<int>(state.range(0)));
  const auto type = static_cast<MoveType>(state.range(1));
  MoveEngine engine(inst);
  Rng rng(23);
  const Solution s = construct_i1_random(inst, rng);
  const auto moves = sample_moves(engine, s, type, 256, rng);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(s, moves[k]));
    k = (k + 1) % moves.size();
  }
  state.SetLabel(to_string(type));
}
BENCHMARK(BM_DeltaMoveEvaluate)
    ->ArgsProduct({{100, 400, 600}, {0, 1, 2, 3, 4}})
    ->ArgNames({"n", "move"});

/// Reference path: materialize both modified routes and re-evaluate them
/// from scratch.  The delta path above must match this bitwise.
void BM_FullMoveEvaluate(benchmark::State& state) {
  const Instance& inst = instance_for(static_cast<int>(state.range(0)));
  const auto type = static_cast<MoveType>(state.range(1));
  MoveEngine engine(inst);
  Rng rng(23);
  const Solution s = construct_i1_random(inst, rng);
  const auto moves = sample_moves(engine, s, type, 256, rng);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate_full(s, moves[k]));
    k = (k + 1) % moves.size();
  }
  state.SetLabel(to_string(type));
}
BENCHMARK(BM_FullMoveEvaluate)
    ->ArgsProduct({{100, 400, 600}, {0, 1, 2, 3, 4}})
    ->ArgNames({"n", "move"});

void BM_PermutationCodec(benchmark::State& state) {
  const Instance& inst = instance_for(static_cast<int>(state.range(0)));
  Rng rng(3);
  const Solution s = construct_i1_random(inst, rng);
  for (auto _ : state) {
    const auto perm = s.to_permutation();
    benchmark::DoNotOptimize(Solution::from_permutation(inst, perm));
  }
}
BENCHMARK(BM_PermutationCodec)->Arg(100)->Arg(400)->Arg(600)->ArgName("n");

void BM_ArchiveTryAdd(benchmark::State& state) {
  Rng rng(11);
  ParetoArchive<int> archive(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Objectives o{rng.uniform(1000.0, 2000.0),
                 static_cast<int>(rng.uniform_int(10, 40)),
                 rng.uniform(0.0, 100.0)};
    benchmark::DoNotOptimize(archive.try_add(o, 0));
  }
}
BENCHMARK(BM_ArchiveTryAdd)->Arg(20)->Arg(100)->ArgName("cap");

void BM_CrowdingDistances(benchmark::State& state) {
  Rng rng(13);
  std::vector<Objectives> objs;
  for (int i = 0; i < state.range(0); ++i) {
    objs.push_back(Objectives{rng.uniform(1000.0, 2000.0),
                              static_cast<int>(rng.uniform_int(10, 40)),
                              rng.uniform(0.0, 100.0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crowding_distances(objs));
  }
}
BENCHMARK(BM_CrowdingDistances)->Arg(21)->Arg(101)->ArgName("points");

void BM_RouteScheduleCompute(benchmark::State& state) {
  const Instance& inst = instance_for(static_cast<int>(state.range(0)));
  Rng rng(5);
  const Solution s = construct_i1_random(inst, rng);
  // Longest route of the construction.
  const std::vector<int>* route = &s.route(0);
  for (int r = 0; r < s.num_routes(); ++r) {
    if (s.route(r).size() > route->size()) route = &s.route(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(RouteSchedule::compute(inst, *route));
  }
}
BENCHMARK(BM_RouteScheduleCompute)
    ->Arg(100)
    ->Arg(400)
    ->Arg(600)
    ->ArgName("n");

void BM_InsertionKeepsSchedule(benchmark::State& state) {
  const Instance& inst = instance_for(100);
  Rng rng(5);
  const Solution s = construct_i1_random(inst, rng);
  const std::vector<int>& route = s.route(0);
  const RouteSchedule sched = RouteSchedule::compute(inst, route);
  std::size_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        insertion_keeps_schedule(inst, route, sched, 1, pos));
    pos = (pos + 1) % (route.size() + 1);
  }
}
BENCHMARK(BM_InsertionKeepsSchedule);

void BM_BestCostRouteCrossover(benchmark::State& state) {
  const Instance& inst = instance_for(static_cast<int>(state.range(0)));
  Rng rng(6);
  const Solution a = construct_i1_random(inst, rng);
  const Solution b = construct_i1_random(inst, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(best_cost_route_crossover(inst, a, b, rng));
  }
}
BENCHMARK(BM_BestCostRouteCrossover)->Arg(100)->Arg(400)->ArgName("n");

void BM_VndImprove(benchmark::State& state) {
  const Instance& inst = instance_for(100);
  MoveEngine engine(inst);
  Rng rng(7);
  const Solution base = construct_nearest_neighbor(inst, rng);
  VndOptions options;
  options.max_moves = 20;  // bounded descent per iteration
  for (auto _ : state) {
    Solution s = base;
    benchmark::DoNotOptimize(vnd_improve(engine, s, options));
  }
}
BENCHMARK(BM_VndImprove);

void BM_SetCoverage(benchmark::State& state) {
  Rng rng(17);
  auto make_front = [&] {
    std::vector<Objectives> f;
    for (int i = 0; i < state.range(0); ++i) {
      f.push_back(Objectives{rng.uniform(1000.0, 2000.0),
                             static_cast<int>(rng.uniform_int(10, 40)),
                             rng.uniform(0.0, 100.0)});
    }
    return f;
  };
  const auto a = make_front();
  const auto b = make_front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(set_coverage(a, b));
  }
}
BENCHMARK(BM_SetCoverage)->Arg(20)->ArgName("front");

// ---------------------------------------------------------------------------
// Speedup record: delta vs. full move evaluation, written as JSON so the
// regression is visible in bench_results/ history.
// ---------------------------------------------------------------------------

/// Nanoseconds per evaluation for `f` (which performs `batch` of them):
/// the best of `reps` timed windows of at least `min_ms` milliseconds,
/// which discards scheduler noise the way google-benchmark's repetitions
/// aggregate does.
template <typename F>
double ns_per_eval(F&& f, int batch, int min_ms = 80, int reps = 3) {
  f();  // warm-up (page in instance matrix, caches)
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t start = tsmo::now_ns();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(min_ms) * 1000000ULL;
    std::int64_t calls = 0;
    std::uint64_t now = start;
    do {
      f();
      ++calls;
      now = tsmo::now_ns();
    } while (now < deadline);
    const double ns = static_cast<double>(now - start);
    best = std::min(best, ns / (static_cast<double>(calls) * batch));
  }
  return best;
}

// ---------------------------------------------------------------------------
// End-to-end search throughput of the two sampling configs, measured as
// *equivalent-progress* iterations per second:
//
//   1. The reference config (uniform sampling — the pre-candidate-list
//      pipeline) runs a fixed budget of full TSMO iterations (generate +
//      select + memory update) and records its final anytime hypervolume
//      H* (IncrementalHypervolume against the instance's
//      convergence_reference) and wall time T_ref.
//   2. The pruned config runs the *same* search loop until its anytime
//      hypervolume reaches H* (capped at 4x the budget), taking time T.
//   3. Its rate is budget / T — iterations-of-equivalent-search-progress
//      per second — and its speedup is T_ref / T.
//
// Rationale: candidate-list pruning spends slightly more per iteration to
// propose far better moves, so raw same-iteration-count throughput would
// credit a config for doing *worse* search faster.  Equal-quality wall
// time is the end-to-end measure of the pipeline: identical search state
// machine, identical stopping quality, only the sampling differs.
// Everything is deterministic per (instance, seed, config): reps differ
// only in timing noise, and the min over reps is reported.
//
// The candidate-list build and the I1 construction are excluded from the
// timed window — they are one-time setup, not per-iteration work.
// ---------------------------------------------------------------------------

/// Instance sizes for the end-to-end section: env TSMO_PERF_SIZES (comma
/// separated hundreds of customers, e.g. "400,600") overrides the default
/// 400,600,1000 sweep — the CI perf smoke uses "400" to stay fast.
std::vector<int> end_to_end_sizes() {
  const char* env = std::getenv("TSMO_PERF_SIZES");
  const std::string spec = env != nullptr ? env : "400,600,1000";
  std::vector<int> sizes;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) sizes.push_back(std::stoi(tok));
  }
  return sizes;
}

constexpr int kEndToEndCandidateK = 16;
constexpr int kEndToEndNeighborhood = 40;
constexpr std::int64_t kEndToEndBudget = 1500;  ///< reference iterations

struct E2eRun {
  double seconds = 0.0;         ///< min wall time over reps
  std::int64_t iterations = 0;  ///< iterations executed (deterministic)
  double hv = 0.0;              ///< final anytime hypervolume
  bool reached = true;          ///< hit the target before the cap
};

/// Runs one config's search loop.  With `target` < 0: exactly `budget`
/// iterations (the reference run).  Otherwise: until the anytime
/// hypervolume reaches `target`, capped at `budget` iterations.
E2eRun run_end_to_end(const Instance& inst, int candidate_k,
                      const std::shared_ptr<const CandidateList>& cands,
                      std::int64_t budget, double target, int reps = 2) {
  TsmoParams p;
  p.max_evaluations = std::numeric_limits<std::int64_t>::max() / 2;
  p.neighborhood_size = kEndToEndNeighborhood;
  p.candidate_k = candidate_k;
  p.seed = 17;
  E2eRun out;
  out.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    SearchState state(inst, p, Rng(p.seed), cands);
    state.initialize();
    IncrementalHypervolume hv(convergence_reference(inst));
    for (const auto& e : state.archive().entries()) hv.add(e.obj);
    const std::uint64_t start = tsmo::now_ns();
    std::int64_t iters = 0;
    bool reached = target >= 0.0 && hv.value() >= target;
    while (!reached && iters < budget) {
      const auto outcome = state.step_with_candidates(
          state.generate_candidates(p.neighborhood_size));
      ++iters;
      if (outcome.archive_improved) {
        for (const auto& e : state.archive().entries()) hv.add(e.obj);
      }
      reached = target >= 0.0 && hv.value() >= target;
    }
    const double elapsed =
        static_cast<double>(tsmo::now_ns() - start) * 1e-9;
    out.seconds = std::min(out.seconds, elapsed);
    out.iterations = iters;
    out.hv = hv.value();
    out.reached = target < 0.0 || reached;
  }
  return out;
}

void write_end_to_end_record(JsonWriter& json) {
  json.key("end_to_end").begin_object();
  json.key("unit").value(
      "equivalent-progress iterations/sec: reference iterations divided by "
      "the time each config needs to reach the reference config's final "
      "anytime hypervolume (reference = uniform sampling, fixed iteration "
      "budget)");
  json.key("neighborhood_size").value(kEndToEndNeighborhood);
  json.key("candidate_k").value(kEndToEndCandidateK);
  json.key("reference_iterations").value(kEndToEndBudget);
  json.key("instances").begin_array();
  std::map<int, std::vector<double>> speedup_by_customers;
  for (const int size : end_to_end_sizes()) {
    const std::string suffix = "_" + std::to_string(size / 100) + "_1";
    for (const std::string cls : {"C1", "R2"}) {
      const Instance inst = generate_named(cls + suffix);
      const auto cands = make_candidate_list(inst, kEndToEndCandidateK);
      const E2eRun ref =
          run_end_to_end(inst, 0, nullptr, kEndToEndBudget, -1.0);
      const E2eRun pruned = run_end_to_end(inst, kEndToEndCandidateK, cands,
                                           4 * kEndToEndBudget, ref.hv);
      const double speedup = ref.seconds / pruned.seconds;
      speedup_by_customers[inst.num_customers()].push_back(speedup);
      json.begin_object();
      json.key("instance").value(inst.name());
      json.key("customers").value(inst.num_customers());
      json.key("target_hv").value(ref.hv);
      json.key("uniform").begin_object();
      json.key("seconds").value(ref.seconds);
      json.key("iterations").value(ref.iterations);
      json.key("hv").value(ref.hv);
      json.key("iterations_per_sec")
          .value(static_cast<double>(ref.iterations) / ref.seconds);
      json.end_object();
      json.key("pruned").begin_object();
      json.key("seconds").value(pruned.seconds);
      json.key("iterations").value(pruned.iterations);
      json.key("hv").value(pruned.hv);
      json.key("reached_target").value(pruned.reached);
      json.key("equiv_iterations_per_sec")
          .value(static_cast<double>(ref.iterations) / pruned.seconds);
      json.key("speedup").value(speedup);
      json.end_object();
      json.end_object();
      std::cout << "e2e " << inst.name() << ": uniform " << ref.seconds
                << "s to hv " << ref.hv << " (" << ref.iterations
                << " it), pruned " << pruned.seconds << "s / "
                << pruned.iterations << " it (x" << speedup
                << (pruned.reached ? "" : ", target NOT reached") << ")\n";
    }
  }
  json.end_array();
  // Geomean of pruned vs uniform across both horizon classes, per size.
  json.key("speedup_by_customers").begin_object();
  for (const auto& [customers, speedups] : speedup_by_customers) {
    double logsum = 0.0;
    for (const double sp : speedups) logsum += std::log(sp);
    json.key(std::to_string(customers))
        .value(std::exp(logsum / static_cast<double>(speedups.size())));
  }
  json.end_object();
  json.end_object();
}

void write_speedup_record(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return;
  }
  // One short-horizon (many ~10-customer routes) and one long-horizon
  // (few ~30-customer routes) instance per size: the paper's small- and
  // large-time-window tables live at these two route-length regimes.
  const std::vector<std::string> names = {"C1_1_1", "R2_1_1", "C1_4_1",
                                          "R2_4_1", "C1_6_1", "R2_6_1"};
  std::map<int, std::vector<double>> by_customers;
  JsonWriter json(out);
  json.begin_object();
  json.key("benchmark").value("delta_move_evaluation");
  json.key("unit").value("ns_per_evaluate");
  json.key("instances").begin_array();
  for (const std::string& name : names) {
    const Instance inst = generate_named(name);
    MoveEngine engine(inst);
    Rng rng(23);
    const Solution s = construct_i1_random(inst, rng);
    json.begin_object();
    json.key("instance").value(inst.name());
    json.key("customers").value(inst.num_customers());
    json.key("move_types").begin_array();
    double speedup_product = 1.0;
    for (int t = 0; t < kNumMoveTypes; ++t) {
      const auto type = static_cast<MoveType>(t);
      const auto moves = sample_moves(engine, s, type, 256, rng);
      double sink = 0.0;
      const auto sweep_delta = [&] {
        for (const Move& m : moves) sink += engine.evaluate(s, m).distance;
      };
      const auto sweep_full = [&] {
        for (const Move& m : moves) {
          sink += engine.evaluate_full(s, m).distance;
        }
      };
      const int batch = static_cast<int>(moves.size());
      const double delta_ns = ns_per_eval(sweep_delta, batch);
      const double full_ns = ns_per_eval(sweep_full, batch);
      benchmark::DoNotOptimize(sink);
      const double speedup = full_ns / delta_ns;
      speedup_product *= speedup;
      by_customers[inst.num_customers()].push_back(speedup);
      json.begin_object();
      json.key("type").value(to_string(type));
      json.key("delta_ns").value(delta_ns);
      json.key("full_ns").value(full_ns);
      json.key("speedup").value(speedup);
      json.end_object();
    }
    json.end_array();
    json.key("geomean_speedup")
        .value(std::pow(speedup_product, 1.0 / kNumMoveTypes));
    json.end_object();
  }
  json.end_array();
  // Geomean across both horizon classes and all move types per size.
  json.key("speedup_by_customers").begin_object();
  for (const auto& [customers, speedups] : by_customers) {
    double logsum = 0.0;
    for (const double sp : speedups) logsum += std::log(sp);
    json.key(std::to_string(customers))
        .value(std::exp(logsum / static_cast<double>(speedups.size())));
  }
  json.end_object();
  write_end_to_end_record(json);
  json.end_object();
  out << '\n';
  std::cout << "wrote " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  std::string record_path = "bench_results/delta_eval_speedup.json";
  if (argc > 1 && argv[1][0] != '-') record_path = argv[1];
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_speedup_record(record_path);
  return 0;
}
