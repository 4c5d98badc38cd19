// google-benchmark microbenchmarks of the neighborhood machinery: per-
// operator proposal+evaluation throughput (uniform and candidate-list
// pruned sampling) and full neighborhood generation at the paper's sizes.
// These numbers calibrate expectations for the evaluation budgets in
// Tables I-IV.

#include <benchmark/benchmark.h>

#include "construct/i1_insertion.hpp"
#include "operators/neighborhood.hpp"
#include "vrptw/candidate_list.hpp"
#include "vrptw/generator.hpp"

namespace {

using namespace tsmo;

const Instance& instance_for(int customers) {
  static Instance i100 = generate_named("R1_1_1");
  static Instance i400 = generate_named("R1_4_1");
  static Instance i600 = generate_named("R1_6_1");
  static Instance i1000 = generate_named("R1_10_1");
  switch (customers) {
    case 100:
      return i100;
    case 400:
      return i400;
    case 1000:
      return i1000;
    default:
      return i600;
  }
}

Solution seed_solution(const Instance& inst) {
  Rng rng(99);
  return construct_i1_random(inst, rng);
}

/// One propose (up to 12 attempts through the Local screen) plus the
/// pricing of the move it yields.  k = 0 is uniform sampling; k = 16 the
/// candidate-list pruned samplers, the pruned-1000 benchmark's setting.
void BM_ProposeEvaluate(benchmark::State& state) {
  const auto type = static_cast<MoveType>(state.range(0));
  const Instance& inst = instance_for(static_cast<int>(state.range(1)));
  const auto cands =
      make_candidate_list(inst, static_cast<int>(state.range(2)));
  const Solution base = seed_solution(inst);
  MoveEngine engine(inst);
  engine.set_candidate_list(cands.get());
  Rng rng(7);
  std::int64_t produced = 0;
  for (auto _ : state) {
    const auto move = engine.propose(type, base, rng);
    if (move) {
      benchmark::DoNotOptimize(engine.evaluate(base, *move));
      ++produced;
    }
  }
  state.counters["feasible_rate"] = benchmark::Counter(
      static_cast<double>(produced), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ProposeEvaluate)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {100, 400, 600, 1000}, {0, 16}})
    ->ArgNames({"op", "n", "k"});

void BM_GenerateNeighborhood(benchmark::State& state) {
  const Instance& inst = instance_for(static_cast<int>(state.range(1)));
  const Solution base = seed_solution(inst);
  MoveEngine engine(inst);
  NeighborhoodGenerator generator(engine);
  Rng rng(7);
  const int size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.generate(base, size, rng));
  }
  state.SetItemsProcessed(state.iterations() * size);
}
BENCHMARK(BM_GenerateNeighborhood)
    ->ArgsProduct({{50, 200}, {100, 400, 600}})
    ->ArgNames({"size", "n"});

void BM_ApplyMove(benchmark::State& state) {
  const Instance& inst = instance_for(static_cast<int>(state.range(0)));
  Solution base = seed_solution(inst);
  MoveEngine engine(inst);
  Rng rng(7);
  for (auto _ : state) {
    const auto move =
        engine.propose(static_cast<MoveType>(rng.below(5)), base, rng);
    if (move) engine.apply(base, *move);
    benchmark::DoNotOptimize(base.objectives());
  }
}
BENCHMARK(BM_ApplyMove)->Arg(100)->Arg(400)->Arg(600)->ArgName("n");

}  // namespace

BENCHMARK_MAIN();
