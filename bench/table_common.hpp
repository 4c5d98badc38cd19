#pragma once

// Shared driver for the Table I-IV reproduction binaries.  Each binary
// names its problem classes and calls run_paper_table(); scale comes from
// TSMO_BENCH_SCALE (ci | small | paper, default small) with TSMO_RUNS /
// TSMO_EVALS / TSMO_INSTANCES / TSMO_NEIGHBORHOOD overrides.  CSVs land in
// bench_results/.  Pass --telemetry-out <path> to collect the run on the
// telemetry layer: a Chrome trace lands at <path>, the JSONL snapshot next
// to it, and the per-phase breakdown is printed after the table.  Pass
// --serve <port> to expose /metrics, /healthz, /status and /buildinfo for
// the duration of the table run (0 disables, -1 picks an ephemeral port).

#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "obs/obs_server.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

inline int run_paper_table(const std::string& table_id,
                           const std::string& title,
                           std::vector<std::string> class_prefixes,
                           int argc = 0,
                           const char* const* argv = nullptr) {
  CliParser cli(table_id, title);
  cli.add_option("telemetry-out",
                 "write a Chrome trace here (and a .jsonl snapshot next to "
                 "it), plus the per-phase breakdown",
                 "");
  cli.add_option("serve",
                 "serve /metrics /healthz /status /buildinfo on this HTTP "
                 "port while the table runs (0 disables, -1 ephemeral)",
                 "0");
  if (argc > 0 && !cli.parse(argc, argv, std::cerr)) return 64;
  const std::string telemetry_out = cli.get("telemetry-out");
  const int serve_port = static_cast<int>(cli.get_int("serve"));

  TableSpec spec;
  spec.title = title;
  spec.class_prefixes = std::move(class_prefixes);
  spec.scale = ExperimentScale::from_env();
  spec.telemetry = !telemetry_out.empty() || serve_port != 0;
  if (spec.telemetry) telemetry::set_enabled(true);

  std::unique_ptr<obs::ObsServer> server;
  if (serve_port != 0) {
    obs::ObsServer::Options so;
    so.port = serve_port < 0 ? 0 : serve_port;
    server = std::make_unique<obs::ObsServer>(so);
    if (!server->start()) {
      std::cerr << "cannot serve: " << server->reason() << "\n";
      return 1;
    }
    std::cout << "observability server on http://127.0.0.1:"
              << server->port() << std::endl;
  }

  std::cout << title << "\n"
            << "scale: runs=" << spec.scale.runs
            << " instances/class=" << spec.scale.instances_per_class
            << " evaluations=" << spec.scale.max_evaluations
            << " neighborhood=" << spec.scale.neighborhood_size
            << "  (TSMO_BENCH_SCALE="
            << env_string("TSMO_BENCH_SCALE").value_or("small")
            << "; set to 'paper' for the full grid)\n\n";

  const bool verbose = env_int("TSMO_VERBOSE", 0) != 0;
  const TableResult result =
      run_table(spec, verbose ? &std::cerr : nullptr);
  print_table(std::cout, result);
  std::cout << "\nPaper-shape checkpoints: sync ~= sequential quality with"
            << " modest saturating speedup; async similar quality, best"
            << " speedup (dips at 12p); coll best quality/coverage,"
            << " negative speedup growing with P.\n";

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    const std::string path = "bench_results/" + table_id + ".csv";
    write_table_csv(path, result);
    std::cout << "CSV written to " << path << "\n";
  }

  if (!telemetry_out.empty()) {
    const auto snap = telemetry::Registry::instance().snapshot();
    std::cout << "\n";
    print_phase_breakdown(std::cout, snap);
    const telemetry::TelemetrySink sink(telemetry_out);
    if (sink.write(snap)) {
      std::cout << "telemetry trace written to " << sink.trace_path()
                << ", snapshot to " << sink.snapshot_path() << "\n";
    } else {
      std::cerr << "cannot write telemetry to " << sink.trace_path()
                << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace tsmo
