#pragma once

// The operational plane (DESIGN.md §10): an embedded HttpServer serving
//
//   GET /metrics    Prometheus 0.0.4 exposition of the telemetry registry
//                   (metrics-only snapshot; span rings are never touched
//                   mid-run) plus obs self-metrics and live Pareto gauges.
//   GET /healthz    liveness JSON: uptime, per-slot heartbeat ages and the
//                   stall watchdog's verdicts.
//   GET /status     live run JSON: engine, global anytime hypervolume and
//                   its non-dominated front, per-worker progress/busy
//                   flags, sample/insertion counts.
//   GET /buildinfo  build provenance (git sha, compiler, flags).
//   GET /debug/profile?seconds=N[&format=folded|speedscope]
//                   on-demand CPU profile window from the sampling
//                   profiler (DESIGN.md §14); 409 when sampling is off.
//   GET /           plain-text index of the endpoints above.
//
// With attach_jobs() the same server also fronts the job plane
// (DESIGN.md §12): POST /jobs, GET /jobs[/<id>[/result]], DELETE
// /jobs/<id>, and /metrics grows tsmo_jobs_* counters and queue gauges.
//
// Everything served (job mutation endpoints aside) is observation-only:
// handlers read atomics, take the recorder mutex briefly, and never touch
// search state or RNGs, so golden-seed fingerprints are identical with
// the server on or off.

#include <atomic>
#include <cstdint>
#include <string>

#include "moo/anytime.hpp"
#include "obs/http_server.hpp"

namespace tsmo::obs {

class JobManager;

class ObsServer {
 public:
  struct Options {
    int port = 0;  ///< 0 = ephemeral (resolved port via port())
    int handler_threads = 2;
  };

  ObsServer() : ObsServer(Options()) {}
  explicit ObsServer(Options opts);

  /// Starts serving; false (see reason()) when the bind fails.
  bool start();
  void stop();
  bool running() const noexcept { return server_.running(); }
  int port() const noexcept { return server_.port(); }
  const std::string& reason() const noexcept { return server_.reason(); }

  /// Attaches the live run's recorder; /status and /healthz serve richer
  /// data while it is set.  Pass nullptr before the recorder dies.
  void set_recorder(const ConvergenceRecorder* rec) noexcept {
    recorder_.store(rec, std::memory_order_release);
  }

  /// Mounts the job plane: registers the /jobs routes and adds job
  /// counters to /metrics.  Must be called before start(); `jobs` must
  /// outlive the server.
  void attach_jobs(JobManager* jobs);

  /// /metrics scrapes answered so far.
  std::uint64_t scrapes() const noexcept {
    return scrapes_.load(std::memory_order_relaxed);
  }

 private:
  void handle_metrics(HttpResponse& res);
  void handle_healthz(HttpResponse& res);
  void handle_status(HttpResponse& res);
  void handle_debug_profile(const HttpRequest& req, HttpResponse& res);

  HttpServer server_;
  JobManager* jobs_ = nullptr;  ///< set before start(), then read-only
  std::atomic<const ConvergenceRecorder*> recorder_{nullptr};
  std::atomic<std::uint64_t> scrapes_{0};
  std::uint64_t start_ns_ = 0;
};

}  // namespace tsmo::obs
