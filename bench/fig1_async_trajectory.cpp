// Figure 1 of the paper: the search trajectory of the asynchronous TS
// approaching the Pareto front.  The paper's figure is a hand-drawn
// illustration; this bench emits a *real* trajectory with the same
// semantics: per master iteration, the pool of candidates considered (which
// mixes neighbors generated against earlier current solutions — the
// defining property of the asynchronous variant) and the solution selected
// as the new current.
//
// Output: a per-iteration summary table, an ASCII objective-space plot of
// the selected currents (distance x tardiness, iteration digits as marks),
// and bench_results/fig1_trajectory.csv for external plotting.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <vector>

#include "moo/anytime.hpp"
#include "sim/sim_tsmo.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "vrptw/generator.hpp"

int main() {
  using namespace tsmo;

  const Instance inst = generate_named("R1_1_1");
  TsmoParams params;
  params.max_evaluations = env_int("TSMO_EVALS", 6000);
  params.neighborhood_size = 60;
  params.seed = 7;
  const CostModel cost = CostModel::for_instance(inst);

  ConvergenceConfig cc;
  cc.reference = convergence_reference(inst);
  cc.sample_every_iters = 10;
  cc.sample_every_ms = 0.0;  // iteration cadence only: deterministic
  ConvergenceRecorder recorder(cc);

  std::vector<SimAsyncIterationEvent> events;
  SimAsyncOptions options;
  options.observer = [&](const SimAsyncIterationEvent& ev) {
    events.push_back(ev);
  };
  RunContext ctx;
  ctx.recorder = &recorder;
  const RunResult result =
      run_sim_async(inst, params, /*processors=*/3, cost, options, ctx);
  recorder.finalize(result.front);

  std::cout << "Fig. 1 -- asynchronous TS trajectory on " << inst.name()
            << " (3 processors, " << result.evaluations
            << " evaluations, virtual runtime "
            << fmt_double(result.sim_seconds, 1) << "s)\n\n";

  TextTable table({"iter", "t_virt [s]", "pool", "pool != chunk",
                   "selected f1", "f2", "f3", "restart"});
  const int chunk = std::max(1, params.neighborhood_size / 3);
  std::int64_t mixed_iterations = 0;
  for (const auto& ev : events) {
    // A pool bigger than two chunks necessarily contains results evaluated
    // against an older current solution (master chunk + >1 worker chunks).
    const bool mixed = static_cast<int>(ev.pool.size()) > 2 * chunk;
    mixed_iterations += mixed ? 1 : 0;
    if (ev.iteration <= 15 || mixed || ev.restarted) {
      table.add_row({std::to_string(ev.iteration),
                     fmt_double(ev.virtual_time_s, 1),
                     std::to_string(ev.pool.size()),
                     mixed ? "yes" : "", fmt_double(ev.selected.distance, 1),
                     std::to_string(ev.selected.vehicles),
                     fmt_double(ev.selected.tardiness, 1),
                     ev.restarted ? "restart" : ""});
    }
    if (table.row_count() > 40) break;
  }
  table.print(std::cout, "Iterations (first 15 + mixed-pool + restarts)");
  std::cout << "\n" << mixed_iterations << " of " << events.size()
            << " iterations consumed candidates from more than one "
            << "neighborhood generation — the cross-iteration mixing the "
            << "paper illustrates in Fig. 1.\n\n";

  // --- ASCII plot of selected currents in (f1, f3) space. ---
  double f1lo = 1e300, f1hi = -1e300, f3lo = 0.0, f3hi = -1e300;
  for (const auto& ev : events) {
    f1lo = std::min(f1lo, ev.selected.distance);
    f1hi = std::max(f1hi, ev.selected.distance);
    f3hi = std::max(f3hi, ev.selected.tardiness);
  }
  const int W = 72, H = 20;
  std::vector<std::string> canvas(H, std::string(W, ' '));
  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto& o = events[k].selected;
    const int x = static_cast<int>((o.distance - f1lo) /
                                   std::max(f1hi - f1lo, 1e-9) * (W - 1));
    const int y = static_cast<int>((o.tardiness - f3lo) /
                                   std::max(f3hi - f3lo, 1e-9) * (H - 1));
    const char mark = static_cast<char>('0' + (k / std::max<std::size_t>(
                                                        events.size() / 10,
                                                        1)) %
                                                  10);
    canvas[static_cast<std::size_t>(H - 1 - y)]
          [static_cast<std::size_t>(x)] = mark;
  }
  std::cout << "Trajectory of selected currents (x: f1 distance "
            << fmt_double(f1lo, 0) << ".." << fmt_double(f1hi, 0)
            << ", y: f3 tardiness 0.." << fmt_double(f3hi, 0)
            << "; digit = search progress decile 0->9):\n";
  for (const auto& line : canvas) std::cout << "  |" << line << "\n";
  std::cout << "  +" << std::string(W, '-') << "\n\n";

  // --- Anytime view from the convergence recorder: how quickly the
  // archive's hypervolume approaches its final value, and how close each
  // sampled archive already was to the final front (additive epsilon). ---
  const auto& samples = recorder.samples();
  if (!samples.empty()) {
    const double final_hv = samples.back().hv;
    TextTable anytime({"iter", "archive", "hv/final [%]", "eps to final",
                       "best feasible f1"});
    const std::size_t stride =
        std::max<std::size_t>(samples.size() / 10, 1);
    for (std::size_t k = 0; k < samples.size(); k += stride) {
      const ConvergenceSample& s = samples[k];
      anytime.add_row(
          {std::to_string(s.iteration), std::to_string(s.archive_size),
           final_hv > 0.0 ? fmt_double(100.0 * s.hv / final_hv, 1) : "-",
           fmt_double(s.eps_to_final, 1),
           s.best_feasible_distance > 0.0
               ? fmt_double(s.best_feasible_distance, 1)
               : "-"});
    }
    anytime.print(std::cout, "Anytime convergence (recorder samples)");
    std::cout << "\n";
  }

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (recorder.write_jsonl("bench_results/fig1_convergence.jsonl")) {
    std::cout << "convergence event stream written to "
                 "bench_results/fig1_convergence.jsonl\n";
  }
  std::ofstream csv("bench_results/fig1_trajectory.csv");
  if (csv) {
    csv << "iteration,virtual_time_s,pool_size,kind,distance,vehicles,"
           "tardiness\n";
    for (const auto& ev : events) {
      for (const Objectives& o : ev.pool) {
        csv << ev.iteration << ',' << ev.virtual_time_s << ','
            << ev.pool.size() << ",candidate," << o.distance << ','
            << o.vehicles << ',' << o.tardiness << '\n';
      }
      csv << ev.iteration << ',' << ev.virtual_time_s << ','
          << ev.pool.size() << ",selected," << ev.selected.distance << ','
          << ev.selected.vehicles << ',' << ev.selected.tardiness << '\n';
    }
    std::cout << "CSV written to bench_results/fig1_trajectory.csv\n";
  }
  return 0;
}
