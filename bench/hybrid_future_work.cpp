// The paper's future work (§V): "combining the multisearch TS with the
// asynchronous TS to get the best of both worlds and probably an algorithm
// that delivers both good solutions and runtime performance."
//
// This bench implements that comparison at equal total processor counts on
// the virtual clock: pure async (1 master group), pure collaborative
// (P independent searchers), and the hybrid (islands of async groups that
// exchange improving solutions).

#include <algorithm>
#include <iostream>

#include "moo/metrics.hpp"
#include "sim/sim_tsmo.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "vrptw/generator.hpp"

int main() {
  using namespace tsmo;
  const Instance inst = generate_named("R1_2_1");
  const std::int64_t evals = env_int("TSMO_EVALS", 10000);
  const int runs = static_cast<int>(env_int("TSMO_RUNS", 3));
  const CostModel cost = CostModel::for_instance(inst);

  std::cout << "Future work (paper SV): hybrid multisearch x async on "
            << inst.name() << ", " << evals
            << " evaluations per searcher-group, " << runs << " runs, "
            << "12 processors total\n\n";

  TsmoParams base;
  base.max_evaluations = evals;
  base.restart_after =
      std::max<int>(5, static_cast<int>(evals / base.neighborhood_size / 5));

  struct Variant {
    const char* label;
    int islands;          // 0 = pure async, -1 = pure coll
    int procs_per_island;
  };
  const Variant variants[] = {
      {"async 1x12 (pure master-worker)", 0, 12},
      {"hybrid 2 islands x 6", 2, 6},
      {"hybrid 4 islands x 3", 4, 3},
      {"coll 12x1 (pure multisearch)", -1, 12},
  };

  // Collect per-run fronts for the coverage cross-comparison.
  std::vector<std::vector<std::vector<Objectives>>> fronts(4);
  TextTable table({"variant", "virtual T [s]", "best dist", "best veh",
                   "front"});
  for (std::size_t v = 0; v < 4; ++v) {
    const Variant& var = variants[v];
    RunningStats t, dist, veh, fsize;
    for (int r = 0; r < runs; ++r) {
      TsmoParams p = base;
      p.seed = 500 + static_cast<std::uint64_t>(r);
      RunResult result;
      if (var.islands == 0) {
        result = run_sim_async(inst, p, var.procs_per_island, cost);
      } else if (var.islands < 0) {
        result = run_sim_multisearch(inst, p, var.procs_per_island, cost)
                     .merged;
      } else {
        result = run_sim_hybrid(inst, p, var.islands, var.procs_per_island,
                                cost)
                     .merged;
      }
      fronts[v].push_back(result.feasible_front());
      t.add(result.sim_seconds);
      dist.add(result.best_feasible_distance());
      veh.add(result.best_feasible_vehicles());
      fsize.add(static_cast<double>(result.front.size()));
    }
    table.add_row({var.label, format_mean_sd(t.mean(), t.stddev()),
                   format_mean_sd(dist.mean(), dist.stddev()),
                   fmt_double(veh.mean(), 1), fmt_double(fsize.mean(), 1)});
  }
  table.print(std::cout);

  // Pairwise coverage, averaged over run pairs.
  std::cout << "\nSet coverage C(row, column), averaged over runs:\n";
  TextTable cov({"", "async", "hyb 2x6", "hyb 4x3", "coll"});
  const char* names[] = {"async", "hyb 2x6", "hyb 4x3", "coll"};
  for (std::size_t a = 0; a < 4; ++a) {
    std::vector<std::string> row{names[a]};
    for (std::size_t b = 0; b < 4; ++b) {
      if (a == b) {
        row.push_back("-");
        continue;
      }
      RunningStats c;
      for (const auto& fa : fronts[a]) {
        for (const auto& fb : fronts[b]) {
          c.add(set_coverage(fa, fb));
        }
      }
      row.push_back(fmt_percent(c.mean()));
    }
    cov.add_row(std::move(row));
  }
  cov.print(std::cout);
  std::cout << "\nExpected shape: hybrids land between the pure variants — "
               "runtime close to async (work is shared within islands), "
               "quality close to collaborative (islands diversify and "
               "exchange) — the \"best of both worlds\" the paper "
               "anticipates.\n";
  return 0;
}
