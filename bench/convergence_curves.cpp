// Anytime behaviour: best-feasible-distance-so-far as a function of
// evaluations for the sequential TSMO under the three feasibility screens.
// Complements ablation_feasibility_screen with the *trajectory*, not just
// the endpoint: the local criterion's detours through tardy regions are
// visible as plateaus of the feasible incumbent.

#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>

#include "core/sequential_tsmo.hpp"
#include "moo/anytime.hpp"
#include "parallel/async_tsmo.hpp"
#include "parallel/hybrid_tsmo.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "vrptw/generator.hpp"

int main() {
  using namespace tsmo;
  const Instance inst = generate_named("R1_2_1");
  const std::int64_t evals = env_int("TSMO_EVALS", 30000);

  std::cout << "Convergence of the feasible incumbent on " << inst.name()
            << ", " << evals << " evaluations\n\n";

  struct Curve {
    FeasibilityScreen screen;
    std::map<std::int64_t, double> incumbent;  // evaluations -> best dist
  };
  std::vector<Curve> curves = {{FeasibilityScreen::CapacityOnly, {}},
                               {FeasibilityScreen::Local, {}},
                               {FeasibilityScreen::Exact, {}}};

  for (Curve& curve : curves) {
    TsmoParams p;
    p.max_evaluations = evals;
    p.feasibility_screen = curve.screen;
    p.restart_after =
        std::max<int>(5, static_cast<int>(evals / p.neighborhood_size / 5));
    p.seed = 77;
    double best = 0.0;
    auto update = [&](const Objectives& o) {
      if (o.tardiness == 0.0 && (best == 0.0 || o.distance < best)) {
        best = o.distance;
      }
    };
    SequentialTsmo(inst, p).run([&](const IterationEvent& ev) {
      // Incumbent over every evaluated point: the current solution and
      // the whole neighborhood of this iteration.
      update(ev.current);
      for (const Candidate& c : *ev.candidates) update(c.obj);
      if (best > 0.0) curve.incumbent[ev.evaluations] = best;
    });
  }

  // Print a sampled table: incumbent at ~10 checkpoints.
  TextTable table({"evaluations", "capacity-only", "local (paper)",
                   "exact"});
  for (int k = 1; k <= 10; ++k) {
    const std::int64_t at = evals * k / 10;
    std::vector<std::string> row{std::to_string(at)};
    for (const Curve& curve : curves) {
      // Last incumbent at or before the checkpoint.
      auto it = curve.incumbent.upper_bound(at);
      if (it == curve.incumbent.begin()) {
        row.push_back("-");
      } else {
        row.push_back(fmt_double(std::prev(it)->second, 1));
      }
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nReading: the exact screen improves steadily; under the "
               "weaker screens (the paper's local criterion included) the "
               "feasible incumbent flatlines for long stretches while the "
               "search explores tardy regions — the soft-window detours "
               "§II.B permits rarely return with a better feasible "
               "solution at these budgets.\n";

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  std::ofstream csv("bench_results/convergence_curves.csv");
  if (csv) {
    csv << "screen,evaluations,best_feasible_distance\n";
    for (const Curve& curve : curves) {
      for (const auto& [at, best] : curve.incumbent) {
        csv << to_string(curve.screen) << ',' << at << ',' << best << '\n';
      }
    }
    std::cout << "CSV written to bench_results/convergence_curves.csv\n";
  }

  // --- Anytime hypervolume of the four TSMO engines (DESIGN.md §9). ---
  // The recorder samples every engine's archive on a fixed iteration
  // cadence; the table reports how much of the run's final hypervolume was
  // already reached at each quarter of the iteration budget — the anytime
  // property behind the paper's "good fronts faster" claim.
  std::cout << "\nAnytime hypervolume by engine (recorder samples, "
            << "4 processors):\n\n";
  const std::int64_t hv_evals = std::min<std::int64_t>(evals, 20000);
  TsmoParams hp;
  hp.max_evaluations = hv_evals;
  hp.seed = 77;
  ConvergenceConfig cc;
  cc.reference = convergence_reference(inst);
  cc.sample_every_iters = 10;
  cc.sample_every_ms = 0.0;

  struct EngineRun {
    const char* name;
    std::function<RunResult(const RunContext&)> run;
  };
  const std::vector<EngineRun> engines = {
      {"sync",
       [&](const RunContext& ctx) {
         return SyncTsmo(inst, hp, 4, {}, ctx).run();
       }},
      {"async",
       [&](const RunContext& ctx) {
         return AsyncTsmo(inst, hp, 4, {}, ctx).run();
       }},
      {"coll",
       [&](const RunContext& ctx) {
         return MultisearchTsmo(inst, hp, 4, {}, ctx).run().merged;
       }},
      {"hybrid",
       [&](const RunContext& ctx) {
         return HybridTsmo(inst, hp, 2, 2, {}, ctx).run().merged;
       }}};

  TextTable hv_table({"engine", "samples", "hv @25%", "@50%", "@75%",
                      "final hv", "final front"});
  std::ofstream hv_csv("bench_results/convergence_hv.csv");
  if (hv_csv) {
    hv_csv << "engine,iteration,t_ns,hv_global,archive_size,"
              "eps_to_final\n";
  }
  for (const EngineRun& e : engines) {
    ConvergenceRecorder rec(cc);
    RunContext ctx;
    ctx.recorder = &rec;
    const RunResult r = e.run(ctx);
    rec.finalize(r.front);
    const auto& samples = rec.samples();
    if (samples.empty()) continue;
    const double final_hv = rec.global_hv();
    auto hv_at = [&](double frac) {
      const std::int64_t last = samples.back().iteration;
      double hv = 0.0;
      for (const ConvergenceSample& s : samples) {
        if (static_cast<double>(s.iteration) <=
            frac * static_cast<double>(last)) {
          hv = std::max(hv, s.hv_global);
        }
      }
      return final_hv > 0.0 ? 100.0 * hv / final_hv : 0.0;
    };
    hv_table.add_row({e.name, std::to_string(samples.size()),
                      fmt_double(hv_at(0.25), 1) + "%",
                      fmt_double(hv_at(0.5), 1) + "%",
                      fmt_double(hv_at(0.75), 1) + "%",
                      fmt_double(final_hv, 3),
                      std::to_string(r.front.size())});
    if (hv_csv) {
      for (const ConvergenceSample& s : samples) {
        hv_csv << e.name << ',' << s.iteration << ',' << s.t_ns << ','
               << s.hv_global << ',' << s.archive_size << ','
               << s.eps_to_final << '\n';
      }
    }
  }
  hv_table.print(std::cout);
  if (hv_csv) {
    std::cout << "\nCSV written to bench_results/convergence_hv.csv\n";
  }
  return 0;
}
