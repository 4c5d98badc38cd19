// Full-featured solver front-end over the library's public API:
//
//   solver_cli --instance R1_4_1 --algorithm coll --processors 6
//              --evaluations 50000 --json out.json
//
// Instances can be Homberger-style names (generated) or Solomon-format
// files.  Algorithms: seq | sync | async | coll | hybrid | nsga2 |
// weighted.  The threaded variants run on real threads; --simulate runs
// the deterministic virtual-clock versions instead and reports the
// modeled runtime.

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include <unistd.h>

#include "core/adaptive_memory.hpp"
#include "core/mots.hpp"
#include "core/pls.hpp"
#include "core/sequential_tsmo.hpp"
#include "core/weighted_ts.hpp"
#include "evolutionary/nsga2.hpp"
#include "evolutionary/spea2.hpp"
#include "harness/job_runner.hpp"
#include "harness/plot.hpp"
#include "harness/report.hpp"
#include "moo/anytime.hpp"
#include "moo/introspect.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/job_manager.hpp"
#include "obs/obs_server.hpp"
#include "operators/local_search.hpp"
#include "parallel/async_tsmo.hpp"
#include "parallel/hybrid_tsmo.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "sim/sim_tsmo.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/profiler.hpp"
#include "util/progress.hpp"
#include "util/stop.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"
#include "vrptw/generator.hpp"
#include "vrptw/solomon_io.hpp"

namespace {

using namespace tsmo;

Instance load_instance(const std::string& spec) {
  if (std::filesystem::exists(spec)) return read_solomon_file(spec);
  return generate_named(spec);
}

// SIGINT/SIGTERM: the first signal requests a cooperative stop — every
// engine loop keys off SearchState::budget_exhausted(), so the run drains
// and the normal post-run flushing (telemetry, convergence, partial
// RunResult JSON) still happens.  A second signal force-exits with the
// conventional 128+SIGINT status.  Everything here is async-signal-safe:
// atomic stores plus (when armed) one lock-free flight-recorder append.
volatile std::sig_atomic_t g_stop_signals = 0;

void handle_stop_signal(int signo) {
  g_stop_signals = g_stop_signals + 1;  // volatile ++ is deprecated in C++20
  if (g_stop_signals > 1) _exit(130);
  if (obs::FlightRecorder::enabled()) {
    obs::FlightRecorder::instance().record(obs::FlightKind::kStopRequest,
                                           nullptr, signo);
  }
  request_stop();
}

void install_stop_signals() {
  struct sigaction sa{};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// Runs one algorithm.  The TSMO engines, threaded and simulated, all take
/// the run context; the comparators ignore it.
RunResult solve(const std::string& algorithm, const Instance& inst,
                const TsmoParams& params, int processors, bool simulate,
                const RunContext& ctx) {
  const CostModel cost = CostModel::for_instance(inst);
  if (algorithm == "seq") {
    return simulate ? run_sim_sequential(inst, params, cost, ctx)
                    : SequentialTsmo(inst, params, ctx).run();
  }
  if (algorithm == "sync") {
    return simulate ? run_sim_sync(inst, params, processors, cost, ctx)
                    : SyncTsmo(inst, params, processors, {}, ctx).run();
  }
  if (algorithm == "async") {
    return simulate
               ? run_sim_async(inst, params, processors, cost, {}, ctx)
               : AsyncTsmo(inst, params, processors, {}, ctx).run();
  }
  if (algorithm == "coll") {
    MultisearchResult r =
        simulate ? run_sim_multisearch(inst, params, processors, cost, ctx)
                 : MultisearchTsmo(inst, params, processors, {}, ctx).run();
    return std::move(r.merged);
  }
  if (algorithm == "hybrid") {
    const int per_island = std::max(2, processors / 2);
    MultisearchResult r =
        simulate ? run_sim_hybrid(inst, params, 2, per_island, cost, ctx)
                 : HybridTsmo(inst, params, 2, per_island, {}, ctx).run();
    return std::move(r.merged);
  }
  if (algorithm == "nsga2") {
    Nsga2Params np;
    np.max_evaluations = params.max_evaluations;
    np.seed = params.seed;
    np.feasibility_screen = params.feasibility_screen;
    return Nsga2(inst, np).run();
  }
  if (algorithm == "weighted") {
    Rng rng(params.seed);
    return weighted_sum_front(inst, params, 5, rng);
  }
  if (algorithm == "spea2") {
    Spea2Params sp;
    sp.max_evaluations = params.max_evaluations;
    sp.seed = params.seed;
    sp.feasibility_screen = params.feasibility_screen;
    return Spea2(inst, sp).run();
  }
  if (algorithm == "mots") {
    MotsParams mp;
    mp.max_evaluations = params.max_evaluations;
    mp.tabu_tenure = params.tabu_tenure;
    mp.seed = params.seed;
    mp.feasibility_screen = params.feasibility_screen;
    return Mots(inst, mp).run();
  }
  if (algorithm == "pls") {
    PlsParams pp;
    pp.max_evaluations = params.max_evaluations;
    pp.archive_capacity = params.archive_capacity;
    pp.seed = params.seed;
    pp.feasibility_screen = params.feasibility_screen;
    return ParetoLocalSearch(inst, pp).run();
  }
  if (algorithm == "amts") {
    AdaptiveMemoryParams ap;
    ap.max_evaluations = params.max_evaluations;
    ap.cycle_evaluations =
        std::max<std::int64_t>(params.max_evaluations / 8, 500);
    ap.inner = params;
    ap.seed = params.seed;
    return AdaptiveMemoryTsmo(inst, ap).run();
  }
  throw std::invalid_argument("unknown algorithm: " + algorithm);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("solver_cli",
                "multiobjective CVRPTW solver (TSMO and comparators)");
  cli.add_option("instance", "Homberger-style name or Solomon file",
                 "R1_1_1");
  cli.add_option("algorithm",
                 "seq | sync | async | coll | hybrid | nsga2 | spea2 | "
                 "mots | amts | pls | weighted",
                 "seq");
  cli.add_option("evaluations", "evaluation budget", "20000");
  cli.add_option("processors", "processors for the parallel variants",
                 "3");
  cli.add_option("neighborhood", "neighborhood size", "200");
  cli.add_option("tenure", "tabu tenure", "20");
  cli.add_option("candidate-k",
                 "candidate-list size for pruned neighborhood sampling "
                 "(0 = legacy uniform sampling)",
                 "0");
  cli.add_option("archive", "archive capacity", "20");
  cli.add_option("restart-after", "unimproving iterations before restart",
                 "100");
  cli.add_option("seed", "random seed", "1");
  cli.add_option("screen", "capacity | local | exact", "local");
  cli.add_option("json", "write the result as JSON to this file", "");
  cli.add_option("svg",
                 "render the best feasible solution's routes to this SVG "
                 "file",
                 "");
  cli.add_option("telemetry-out",
                 "write a Chrome trace here (and a .jsonl metrics snapshot "
                 "next to it), plus the per-phase breakdown",
                 "");
  cli.add_option("convergence-out",
                 "record anytime convergence and write the event stream "
                 "(convergence.jsonl schema) to this file",
                 "");
  cli.add_option("sample-iters",
                 "convergence sample cadence in searcher iterations", "50");
  cli.add_option("sample-ms", "convergence sample cadence in wall ms",
                 "250");
  cli.add_option("stall-ms",
                 "flag a worker stalled after this many ms without a "
                 "heartbeat (0 disables the watchdog)",
                 "0");
  cli.add_option("serve",
                 "serve /metrics /healthz /status /buildinfo on this "
                 "HTTP port (0 disables, -1 picks an ephemeral port)",
                 "0");
  cli.add_option("job-workers",
                 "executor threads of the --serve-jobs pool", "2");
  cli.add_option("job-queue",
                 "admission queue depth of --serve-jobs (submissions "
                 "beyond it get 429 + Retry-After)",
                 "16");
  cli.add_option("postmortem",
                 "arm the crash-safe flight recorder: SIGSEGV/SIGABRT/"
                 "SIGBUS dump a postmortem JSON document to this path",
                 "");
  cli.add_option("flight-slots",
                 "capacity of the flight recorder ring, clamped to "
                 "[16, 65536]",
                 "256");
  cli.add_option("log-level",
                 "structured JSONL log threshold: debug | info | warn | "
                 "error | off (default info, or warn under --quiet)",
                 "");
  cli.add_option("log-out",
                 "append structured JSONL logs to this file instead of "
                 "stderr",
                 "");
  cli.add_option("profile-hz",
                 "arm the sampling CPU profiler at this rate (0 = off); "
                 "export via /debug/profile or --profile-out",
                 "0");
  cli.add_option("profile-out",
                 "write the run's folded-stack profile to this file", "");
  cli.add_flag("serve-jobs",
               "run as a batch solver service instead of solving once: "
               "POST /jobs, GET /jobs/<id>[/result], DELETE /jobs/<id> "
               "on the --serve port (ephemeral when --serve is 0), until "
               "SIGINT/SIGTERM");
  cli.add_flag("progress",
               "live one-line status (iterations/s, hypervolume, archive "
               "size, stalled workers)");
  cli.add_flag("stall-restart",
               "let a watchdog verdict trigger the stalled searcher's "
               "diversification restart (async/hybrid, needs --stall-ms)");
  cli.add_flag("introspect",
               "collect live per-operator/tabu/archive search rates "
               "(/jobs introspection and the result's introspect block)");
  cli.add_flag("simulate", "run on the virtual clock (deterministic)");
  cli.add_flag("polish",
               "post-run VND local search on every archive solution");
  cli.add_flag("quiet", "suppress the front table");
  if (!cli.parse(argc, argv, std::cerr)) return 64;

  // Log plane and flight ring are configured before any mode branches, so
  // both the one-shot solver and the job service share one setup.
  // --quiet dampens the default log level; an explicit --log-level wins.
  log::Level log_level =
      cli.flag("quiet") ? log::Level::kWarn : log::Level::kInfo;
  const std::string log_level_arg = cli.get("log-level");
  if (!log_level_arg.empty() && !log::parse_level(log_level_arg, log_level)) {
    std::cerr << "unknown --log-level: " << log_level_arg << "\n";
    return 64;
  }
  log::set_level(log_level);
  if (!log::set_output(cli.get("log-out"))) {
    std::cerr << "cannot open --log-out " << cli.get("log-out") << "\n";
    return 1;
  }

  try {
    const int flight_slots = static_cast<int>(cli.get_int("flight-slots"));
    obs::FlightRecorder::instance().configure_capacity(flight_slots);
    if (cli.flag("serve-jobs")) {
      // Service mode: no one-shot solve — the process fronts the job
      // plane until a stop signal and drains cleanly (queued jobs become
      // cancelled, running engines stop cooperatively).
      install_stop_signals();
      telemetry::set_enabled(true);
      obs::FlightRecorder::set_enabled(true);
      // Service-wide profiler arm: /debug/profile and /jobs/<id>/profile
      // work for every job without each body opting in.
      if (const int hz = static_cast<int>(cli.get_int("profile-hz"));
          hz > 0) {
        if (!prof::start(hz)) {
          std::cerr << "warning: sampling profiler unavailable on this "
                       "platform; /debug/profile will answer 409\n";
        }
      }
      const std::string postmortem = cli.get("postmortem");
      if (!postmortem.empty() &&
          !obs::install_crash_handlers(postmortem)) {
        std::cerr << "cannot open postmortem path " << postmortem << "\n";
        return 1;
      }

      obs::JobManagerConfig jc;
      jc.queue_capacity =
          static_cast<std::size_t>(std::max<long long>(
              1, cli.get_int("job-queue")));
      jc.executors = static_cast<int>(cli.get_int("job-workers"));
      obs::JobManager jobs(jc, make_job_runner());

      obs::ObsServer::Options so;
      const int serve_port = static_cast<int>(cli.get_int("serve"));
      so.port = serve_port <= 0 ? 0 : serve_port;
      obs::ObsServer server(so);
      server.attach_jobs(&jobs);
      if (!server.start()) {
        std::cerr << "cannot serve: " << server.reason() << "\n";
        return 1;
      }
      jobs.start();
      // One parseable line so scripts can discover an ephemeral port.
      std::cout << "job server on http://127.0.0.1:" << server.port()
                << " (POST /jobs, " << jc.executors << " workers, queue "
                << jc.queue_capacity << ")" << std::endl;
      log::info("cli")
          .msg("serving jobs")
          .i64("port", server.port())
          .i64("executors", jc.executors)
          .i64("queue", static_cast<std::int64_t>(jc.queue_capacity));

      while (!stop_requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      std::cout << "stop requested: draining job plane\n";
      jobs.shutdown();
      server.stop();
      const obs::JobManager::Stats stats = jobs.stats();
      std::cout << "jobs: " << stats.accepted << " accepted, "
                << stats.done << " done, " << stats.cancelled
                << " cancelled, " << stats.failed << " failed, "
                << stats.rejected << " rejected\n";
      return 0;
    }

    const Instance inst = load_instance(cli.get("instance"));
    TsmoParams params;
    params.max_evaluations = cli.get_int("evaluations");
    params.neighborhood_size = static_cast<int>(cli.get_int("neighborhood"));
    params.tabu_tenure = static_cast<int>(cli.get_int("tenure"));
    params.candidate_k = static_cast<int>(cli.get_int("candidate-k"));
    params.archive_capacity = static_cast<int>(cli.get_int("archive"));
    params.restart_after = static_cast<int>(cli.get_int("restart-after"));
    params.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const std::string screen = cli.get("screen");
    params.feasibility_screen =
        screen == "capacity" ? FeasibilityScreen::CapacityOnly
        : screen == "exact"  ? FeasibilityScreen::Exact
                             : FeasibilityScreen::Local;
    const std::string telemetry_out = cli.get("telemetry-out");
    if (!telemetry_out.empty()) {
      params.telemetry = true;
      telemetry::set_enabled(true);  // also covers the comparator solvers
    }

    // Serving implies the full observation stack: telemetry for /metrics
    // and a convergence recorder for /status and /healthz.  All of it is
    // pure observation, so fingerprints are unaffected.
    const int serve_port = static_cast<int>(cli.get_int("serve"));
    if (serve_port != 0) {
      params.telemetry = true;
      telemetry::set_enabled(true);
    }

    const std::string convergence_out = cli.get("convergence-out");
    std::unique_ptr<ConvergenceRecorder> recorder;
    if (!convergence_out.empty() || cli.flag("progress") ||
        cli.get_double("stall-ms") > 0.0 || serve_port != 0) {
      ConvergenceConfig cc;
      cc.reference = convergence_reference(inst);
      cc.sample_every_iters = static_cast<int>(cli.get_int("sample-iters"));
      cc.sample_every_ms = cli.get_double("sample-ms");
      cc.stall_threshold_ms = cli.get_double("stall-ms");
      recorder = std::make_unique<ConvergenceRecorder>(cc);
    }
    // Live introspection hub (DESIGN.md §14) for /metrics' tsmo_search_*
    // gauges; RunResult carries the summary either way.
    std::optional<LiveIntrospect> introspect;
    if (cli.flag("introspect")) introspect.emplace(cli.get("algorithm"));

    RunContext ctx;
    // Direct runs mint a deterministic trace id from the seed, so Chrome
    // traces (--telemetry-out) and flight events carry the same causal
    // correlation id scheme as job-plane runs (DESIGN.md §13).
    ctx.trace.trace_id = telemetry::derive_trace_id(params.seed);
    ctx.profile_hz = static_cast<int>(cli.get_int("profile-hz"));
    ctx.recorder = recorder.get();
    ctx.introspect = introspect ? &*introspect : nullptr;
    ctx.stall_restart = cli.flag("stall-restart");

    install_stop_signals();

    const std::string postmortem = cli.get("postmortem");
    if (!postmortem.empty()) {
      if (!obs::install_crash_handlers(postmortem)) {
        std::cerr << "cannot open postmortem path " << postmortem << "\n";
        return 1;
      }
    }
    if (recorder && (obs::FlightRecorder::enabled() || serve_port != 0)) {
      // Postmortems include the last heartbeat of every worker slot; the
      // board outlives the run (detached before the recorder dies below).
      obs::FlightRecorder::instance().set_heartbeat_board(
          &recorder->board());
      recorder->set_stall_observer([](const StallRecord& s) {
        obs::flight_stall(s.label.c_str(), s.slot, s.progress);
      });
    }

    // Declared after `recorder` so it is destroyed (and stopped) first —
    // handlers hold a recorder pointer until then.
    std::unique_ptr<obs::ObsServer> server;
    if (serve_port != 0) {
      obs::ObsServer::Options so;
      so.port = serve_port < 0 ? 0 : serve_port;
      server = std::make_unique<obs::ObsServer>(so);
      obs::FlightRecorder::set_enabled(true);
      if (!server->start()) {
        std::cerr << "cannot serve: " << server->reason() << "\n";
        return 1;
      }
      server->set_recorder(recorder.get());
      std::cout << "observability server on http://127.0.0.1:"
                << server->port()
                << " (/metrics /healthz /status /buildinfo)" << std::endl;
    }

    std::unique_ptr<ProgressPrinter> progress;
    if (cli.flag("progress") && recorder) {
      ConvergenceRecorder* rec = recorder.get();
      progress = std::make_unique<ProgressPrinter>(
          std::cout, 200.0, [rec] { return rec->status_line(); });
    }

    RunResult result =
        solve(cli.get("algorithm"), inst, params,
              static_cast<int>(cli.get_int("processors")),
              cli.flag("simulate"), ctx);

    if (progress) progress->finish();
    if (recorder) recorder->finalize(result.front);
    log::info("cli")
        .msg("run finished")
        .str("algorithm", result.algorithm)
        .str("instance", inst.name())
        .hex("trace_id", ctx.trace.trace_id)
        .i64("evaluations", result.evaluations)
        .f64("wall_seconds", result.wall_seconds);
    result.stopped_early = result.stopped_early || stop_requested();
    if (result.stopped_early) {
      std::cout << "stop requested (signal): flushing partial results\n";
    }
    if (!postmortem.empty()) result.postmortem_path = postmortem;

    if (cli.flag("polish")) {
      // Deterministic VND descent on each archive member; the polished
      // front is re-filtered since polishing can create dominance.
      MoveEngine engine(inst);
      VndOptions vnd;
      vnd.screen = params.feasibility_screen;
      int total_moves = 0;
      for (std::size_t i = 0; i < result.solutions.size(); ++i) {
        total_moves += vnd_improve(engine, result.solutions[i], vnd)
                           .moves_applied;
        result.front[i] = result.solutions[i].objectives();
      }
      for (std::size_t i = result.front.size(); i-- > 0;) {
        bool dominated = false;
        for (std::size_t j = 0; j < result.front.size() && !dominated;
             ++j) {
          if (j == i) continue;
          if (dominates(result.front[j], result.front[i]) ||
              (j < i && result.front[j] == result.front[i])) {
            dominated = true;
          }
        }
        if (dominated) {
          result.front.erase(result.front.begin() +
                             static_cast<std::ptrdiff_t>(i));
          result.solutions.erase(result.solutions.begin() +
                                 static_cast<std::ptrdiff_t>(i));
        }
      }
      std::cout << "polished with " << total_moves << " VND moves\n";
    }

    std::cout << result.algorithm << " on " << inst.name() << ": "
              << result.evaluations << " evaluations, "
              << result.iterations << " iterations, wall "
              << fmt_double(result.wall_seconds, 2) << "s";
    if (result.sim_seconds > 0.0) {
      std::cout << ", virtual " << fmt_double(result.sim_seconds, 1)
                << "s";
    }
    std::cout << "\n";

    if (!cli.flag("quiet")) {
      TextTable table({"#", "distance", "vehicles", "tardiness",
                       "feasible"});
      for (std::size_t i = 0; i < result.front.size(); ++i) {
        table.add_row({std::to_string(i + 1),
                       fmt_double(result.front[i].distance),
                       std::to_string(result.front[i].vehicles),
                       fmt_double(result.front[i].tardiness),
                       i < result.solutions.size() &&
                               result.solutions[i].feasible()
                           ? "yes"
                           : "no"});
      }
      table.print(std::cout, "Pareto archive");
    }

    if (recorder && !cli.flag("quiet") &&
        !recorder->attribution().empty()) {
      TextTable attr(
          {"searcher", "worker", "operator", "insertions", "survived"});
      for (const AttributionRow& row : recorder->attribution()) {
        attr.add_row(
            {std::to_string(row.searcher),
             row.worker < 0 ? "self" : std::to_string(row.worker),
             row.op < 0 ? "init/restart"
                        : to_string(static_cast<MoveType>(row.op)),
             std::to_string(row.insertions), std::to_string(row.survived)});
      }
      attr.print(std::cout, "Archive contributions");
    }

    if (const std::string path = cli.get("svg"); !path.empty()) {
      const Solution* best = nullptr;
      for (std::size_t i = 0; i < result.solutions.size(); ++i) {
        const Solution& s = result.solutions[i];
        if (!s.feasible()) continue;
        if (best == nullptr ||
            s.objectives().distance < best->objectives().distance) {
          best = &s;
        }
      }
      if (best == nullptr && !result.solutions.empty()) {
        best = &result.solutions.front();  // nothing feasible: plot anyway
      }
      if (best != nullptr) {
        std::ofstream f(path);
        SvgOptions options;
        options.title = inst.name() + " — " + result.algorithm + ", " +
                        to_string(best->objectives());
        write_solution_svg(f, *best, options);
        std::cout << "SVG written to " << path << "\n";
      }
    }
    if (!telemetry_out.empty()) {
      const auto snap = telemetry::Registry::instance().snapshot();
      if (!cli.flag("quiet")) print_phase_breakdown(std::cout, snap);
      const telemetry::TelemetrySink sink(telemetry_out);
      if (!sink.write(snap)) {
        std::cerr << "cannot write telemetry to " << sink.trace_path()
                  << "\n";
        return 1;
      }
      result.telemetry_path = sink.trace_path();
      std::cout << "telemetry trace written to " << sink.trace_path()
                << ", snapshot to " << sink.snapshot_path() << "\n";
    }
    if (recorder && !convergence_out.empty()) {
      if (!recorder->write_jsonl(convergence_out)) {
        std::cerr << "cannot write convergence stream to "
                  << convergence_out << "\n";
        return 1;
      }
      std::cout << recorder->samples().size() << " convergence samples ("
                << recorder->insertions().size() << " insertions, "
                << recorder->stalls_flagged()
                << " stalls) written to " << convergence_out << "\n";
    }
    if (const std::string path = cli.get("json"); !path.empty()) {
      std::ofstream f(path);
      if (!f) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
      }
      write_run_json(f, inst, result);
      std::cout << "JSON written to " << path << "\n";
    }
    if (const std::string path = cli.get("profile-out"); !path.empty()) {
      if (!prof::enabled()) {
        std::cerr << "--profile-out needs --profile-hz N on a supported "
                     "platform\n";
        return 1;
      }
      std::ofstream f(path);
      if (!f) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
      }
      const std::vector<prof::Sample> samples = prof::collect();
      f << prof::fold(samples);
      std::cout << samples.size() << " profile samples ("
                << prof::stats().rate_hz << " Hz) written to " << path
                << " (flamegraph.pl-ready folded stacks)\n";
    }
    if (server) {
      server->set_recorder(nullptr);
      server->stop();
    }
    obs::FlightRecorder::instance().set_heartbeat_board(nullptr);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
