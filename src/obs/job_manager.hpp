#pragma once

// The job plane (DESIGN.md §12): a multi-tenant batch front end over the
// embedded HttpServer.
//
//   POST   /jobs              submit a VRPTW job (instance + params JSON);
//                             202 with a job id, 400 on malformed bodies,
//                             429 + Retry-After when the queue is full
//   GET    /jobs              list every known job + plane statistics
//   GET    /jobs/<id>         job state, and while it runs the live
//                             anytime Pareto front (convergence recorder)
//   GET    /jobs/<id>/result  final RunResult JSON (409 until terminal)
//   DELETE /jobs/<id>         cancel: queued jobs die immediately, running
//                             jobs drain via their per-job stop flag and
//                             keep a stopped_early partial result
//
// Layering: this unit owns lifecycle, admission and bookkeeping but knows
// nothing about engines — execution is injected as a JobRunner (the
// standard one lives in src/harness/job_runner.hpp, which may link the
// whole solver stack; tsmo_obs must not).  Each job gets its own
// std::atomic<bool> cancel flag, which the runner plumbs into
// RunContext::stop so cancellation scopes to exactly one job, and engines
// stay deterministic per job: identical (instance, params, seed)
// submissions produce identical trace/archive fingerprints regardless of
// queue interleaving or concurrent load.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "moo/anytime.hpp"
#include "moo/introspect.hpp"
#include "obs/http_server.hpp"
#include "obs/job_queue.hpp"
#include "util/telemetry.hpp"

namespace tsmo::obs {

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

/// "queued" | "running" | "done" | "failed" | "cancelled".
const char* to_string(JobState state) noexcept;
inline bool is_terminal(JobState s) noexcept {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

/// Execution context handed to the runner for one job.
struct JobContext {
  /// This job's cooperative stop flag; forward it into RunContext::stop so
  /// DELETE /jobs/<id> drains exactly this run.
  const std::atomic<bool>* cancel = nullptr;
  /// Publishes (or retracts, with nullptr) the run's convergence recorder
  /// so GET /jobs/<id> can serve the live anytime front.  The runner must
  /// retract before the recorder dies; the manager also retracts
  /// defensively when the runner returns.
  std::function<void(const ConvergenceRecorder*)> publish;
  /// Publishes (or retracts) the run's live introspection hub so GET
  /// /jobs/<id>/introspect can serve operator/tabu/archive rates mid-run
  /// (DESIGN.md §14).  Same lifetime contract as `publish`.
  std::function<void(const LiveIntrospect*)> publish_introspect;
  /// This job's causal trace context (DESIGN.md §13): trace_id names the
  /// request, span_id is the manager's "job.run" span.  The runner forwards
  /// both into TsmoParams so engine/worker spans parent under the job.
  telemetry::TraceContext trace;
};

/// What the runner hands back for one job.
struct JobOutcome {
  bool ok = false;
  std::string error;        ///< filled when !ok
  std::string result_json;  ///< full RunResult document (write_run_json)
  /// Final introspection summary (LiveIntrospect::to_json); empty when
  /// the job ran without params.introspect.
  std::string introspect_json;
  // Summary fields surfaced in GET /jobs/<id> without reparsing the JSON.
  std::string algorithm;
  std::string instance;
  std::uint64_t trace_fingerprint = 0;
  std::uint64_t archive_fingerprint = 0;
  std::size_t front_size = 0;
  std::int64_t evaluations = 0;
  double wall_seconds = 0.0;
  bool stopped_early = false;
  /// Runner time until the anytime archive accepted its first point
  /// (convergence recorder insertion clock); 0 when no front emerged.
  /// The manager adds queue wait and classifies submit-to-first-front
  /// against its 2 s target (the tsmo_jobs_first_front_* counters).
  std::uint64_t first_front_ns = 0;
};

/// Executes one submitted body.  Runs on a manager executor thread; must
/// honor ctx.cancel promptly and never throw for routine bad input
/// (return ok=false instead) — exceptions are caught and mapped to a
/// failed job regardless.
using JobRunner =
    std::function<JobOutcome(const std::string& body, const JobContext& ctx)>;

struct JobManagerConfig {
  /// Bounded FIFO depth; admission control refuses submissions beyond it
  /// with 429 + Retry-After.
  std::size_t queue_capacity = 16;
  /// Fixed executor pool: at most this many engine runs are in flight.
  int executors = 2;
  /// Advisory Retry-After [s] attached to 429 responses.
  int retry_after_seconds = 1;
  /// Per-job span budget: GET /jobs/<id>/trace keeps at most this many
  /// spans; overflow is counted in the export's dropped_spans, never
  /// silently lost.
  std::size_t trace_span_budget = 4096;
};

class JobManager {
 public:
  /// Uniform API answer: HTTP status + JSON body (+ optional Retry-After).
  struct ApiResponse {
    ApiResponse() = default;
    ApiResponse(int status_in, std::string body_in, int retry_after_in = 0,
                std::uint64_t trace_id_in = 0, std::string trace_label_in = {})
        : status(status_in),
          body(std::move(body_in)),
          retry_after(retry_after_in),
          trace_id(trace_id_in),
          trace_label(std::move(trace_label_in)) {}

    int status = 200;
    std::string body;
    int retry_after = 0;  ///< seconds; emitted as a Retry-After header
    /// Overrides the default application/json content type when non-empty
    /// (the folded-stack profile export is plain text).
    std::string content_type;
    /// Exemplar correlation for RED metrics: the causal trace id of the
    /// job this response concerns (0 when none) and its name.
    std::uint64_t trace_id = 0;
    std::string trace_label;
  };

  /// Monotone plane counters; at quiescence
  /// accepted == done + failed + cancelled.
  struct Stats {
    std::uint64_t submitted = 0;  ///< POST /jobs calls that parsed at all
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;   ///< 429s (admission control)
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    /// Successful jobs classified against the 2 s first-front target.
    std::uint64_t first_front_total = 0;
    std::uint64_t first_front_slow = 0;
    std::size_t queue_depth = 0;
    std::size_t running = 0;
    std::size_t queue_capacity = 0;
    int executors = 0;
  };

  /// One job's externally visible state (tests and /jobs listing).
  struct JobView {
    std::uint64_t id = 0;
    std::string name;  ///< "job-<id>"
    JobState state = JobState::kQueued;
    std::string error;
    std::string algorithm;
    std::uint64_t trace_fingerprint = 0;
    std::uint64_t archive_fingerprint = 0;
    std::size_t front_size = 0;
    bool stopped_early = false;
  };

  JobManager(JobManagerConfig config, JobRunner runner);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Launches the executor pool.  Idempotent.
  void start();

  /// Stops admission, cancels queued and running jobs (cooperatively),
  /// and joins the executors.  Every accepted job reaches a terminal
  /// state.  Idempotent; also run by the destructor.
  void shutdown();

  // --- HTTP-facing operations (thread-safe) ---
  ApiResponse submit(const std::string& body);
  ApiResponse status_of(const std::string& name) const;
  ApiResponse result_of(const std::string& name) const;
  /// Chrome-trace JSON of the job's causal spans (submit→queue→run→worker);
  /// valid at any lifecycle stage (empty traceEvents until spans exist).
  ApiResponse trace_of(const std::string& name) const;
  /// Live introspection document while the job runs (when its runner
  /// published a hub), the terminal summary once done; 409 when the job
  /// never enabled introspection.
  ApiResponse introspect_of(const std::string& name) const;
  /// CPU profile of this job only: samples whose ambient trace id matches
  /// the job's, folded ("folded", default) or speedscope JSON
  /// ("speedscope").  409 while the sampling profiler is disarmed.
  ApiResponse profile_of(const std::string& name,
                         const std::string& format) const;
  ApiResponse cancel(const std::string& name);
  ApiResponse list() const;

  /// Registers the /jobs routes on `server` (call before server.start()).
  void install_routes(HttpServer& server);

  Stats stats() const;
  JobView view(const std::string& name) const;  ///< id 0 when unknown

 private:
  struct Job {
    std::uint64_t id = 0;
    std::string name;
    std::string body;
    JobState state = JobState::kQueued;  // guarded by mutex_
    std::atomic<bool> cancel{false};
    std::uint64_t submit_ns = 0;
    std::uint64_t start_ns = 0;   // guarded by mutex_
    std::uint64_t finish_ns = 0;  // guarded by mutex_
    JobOutcome outcome;           // guarded by mutex_ once terminal

    // Causal trace (DESIGN.md §13): ids minted deterministically at
    // submit; the buffer collects engine spans while the job runs (via
    // Registry::attach_trace) plus the manager's own lifecycle spans.
    std::uint64_t trace_id = 0;
    std::uint64_t root_span_id = 0;           ///< "job" span
    std::uint64_t run_span_id = 0;            ///< "job.run" span (mutex_)
    std::shared_ptr<telemetry::TraceBuffer> trace_buf;

    // Live recorder pointer for mid-run /jobs/<id> polling.  Its own
    // mutex so serializing a front never blocks submissions.
    mutable std::mutex live_mutex;
    const ConvergenceRecorder* live = nullptr;  // guarded by live_mutex
    const LiveIntrospect* live_introspect = nullptr;  // guarded by live_mutex
  };

  void executor_loop();
  void run_job(Job& job);
  Job* find(const std::string& name) const;  // mutex_ held by caller
  void finish_job(Job& job, JobOutcome outcome);
  void write_job_status(const Job& job, std::string& out) const;
  void write_job_trace(const Job& job, std::string& out) const;

  const JobManagerConfig config_;
  const JobRunner runner_;
  JobQueue queue_;

  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 1;
  bool started_ = false;
  bool stopping_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t first_front_total_ = 0;
  std::uint64_t first_front_slow_ = 0;
  std::size_t running_ = 0;

  std::vector<std::thread> executors_;
};

}  // namespace tsmo::obs
