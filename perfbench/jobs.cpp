// jobs-open: the deployed job service under an open-loop client.
//
// solver_cli --serve-jobs runs as a separate process with two executors
// and its history/SLO plane on.  One client thread, one connection at a
// time, sends seq jobs on a seeded Poisson schedule (the open-loop phase),
// then keeps a fixed number of jobs in the system (the saturation phase).
// Every job's result is checked against an in-process run_job_body of the
// same body, computed before the timed phases; an engine pass over the
// bodies, also before them, gives the engine's time to target and quality.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "harness/job_runner.hpp"
#include "harness/report.hpp"
#include "moo/anytime.hpp"
#include "moo/metrics.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"
#include "vrptw/generator.hpp"
#include "vrptw/solomon_io.hpp"
#include "vrptw/solution.hpp"

extern char** environ;

namespace perfbench {

namespace {

using tsmo::Instance;
using tsmo::RunResult;

/// Executors of the served job pool: with the client thread this keeps the
/// service inside the 4-core budget.
constexpr int kExecutors = 2;
/// Open-loop arrival rate: about a fifth of the two executors' capacity at
/// the commit the benchmark was defined on (35-56 jobs/s, a mean job of
/// about 45 ms); whole passes over the mix round it to about 8 jobs/s.
/// The host's speed drifts by up to 1.6x, and queueing amplifies that: at
/// 40-60% load the tail latency tripled in slow spells (and a queue of 16
/// overflowed), and at 35% the median still moved twice as much as the
/// capacity did.  At this rate latency tracks job time.
constexpr double kArrivalsPerSecond = 9.0;
/// Typical capacity at that commit; sizes the saturation phase to fill the
/// rest of --seconds there.
constexpr double kNominalCapacity = 48.0;
/// Admission queue of the served pool (--job-queue), deep enough that a
/// burst in a slow spell is queued rather than refused.
constexpr int kQueue = 64;
/// Jobs kept in the system during the saturation phase: both executors
/// busy and a backlog, well below the admission queue so no 429s.
constexpr std::size_t kSaturationJobs = 6;
/// Share of --seconds given to the open-loop phase; the saturation phase
/// gets the rest.
constexpr double kOpenShare = 0.75;
/// Server launches for the set-up median.
constexpr int kLaunches = 25;
/// Each outstanding job is polled at most this often.  Latency does not
/// depend on it: completion is taken from the server's own timestamps.
constexpr double kPollPeriodS = 0.02;
/// Ignore this much of the saturation phase while the backlog fills.
constexpr double kSaturationWarmupS = 0.5;
/// A run whose 90th-percentile send lag exceeds this is invalid.
constexpr double kMaxLagP90S = 0.010;
/// How often the reference kernel is timed while the phases run.
constexpr auto kReferencePeriod = std::chrono::milliseconds(250);

/// One distinct job body of the mix.  The mix spans set-up-heavy and
/// search-heavy jobs: 200/400/1000 customers, 10k/20k evaluations, uniform
/// and pruned sampling, generator specs and Solomon text (~74 KB at 1000
/// customers).  Job times cluster by shape, so the count of equally
/// weighted shapes is odd: the median latency then falls inside the middle
/// shape's cluster (a 400-customer one) instead of in the gap between two
/// clusters, where it jumped by a third from run to run.
struct BodySpec {
  const char* instance;
  bool solomon;
  int candidate_k;
  std::int64_t evaluations;
};

constexpr BodySpec kMix[] = {
    {"R1_2_1", false, 0, 10000},    {"C2_2_1", true, 16, 20000},
    {"RC1_2_1", false, 16, 20000},  {"C1_4_1", false, 0, 20000},
    {"RC2_4_1", false, 16, 10000},  {"R1_4_2", true, 0, 20000},
    {"C2_4_2", false, 0, 10000},    {"RC1_4_1", true, 16, 20000},
    {"C1_10_1", false, 16, 20000},  {"R2_10_1", true, 0, 10000},
    {"RC1_10_1", false, 0, 10000},
};
constexpr std::size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);
/// Engine seeds per body of the mix.  Job cost depends on the seed (the I1
/// construction's random parameters alone move a 1000-customer job by
/// tens of ms), and the latency percentiles fall among a few bodies, so
/// the mix averages over many seeds to keep them steady.
constexpr int kSeedsPerBody = 8;

struct Body {
  std::string json;
  std::string label;
  Instance instance;  ///< for re-evaluating returned routes
  bool solomon = false;
  int candidate_k = 0;
  std::int64_t evaluations = 0;
  std::uint64_t seed = 0;
  double target = 0.0;  ///< calibrated hypervolume target of the instance
  // In-process reference (run_job_body), the job plane's contract.
  std::uint64_t archive_fp = 0;
  std::uint64_t trace_fp = 0;
  double reference_s = 0.0;
};

/// The engine parameters run_job_body derives from a body of the mix.
tsmo::TsmoParams body_params(const Body& b) {
  tsmo::TsmoParams p;
  p.max_evaluations = b.evaluations;
  p.candidate_k = b.candidate_k;
  p.seed = b.seed;
  p.trace = true;
  return p;
}

Body make_body(const BodySpec& spec, std::uint64_t seed) {
  Instance inst = tsmo::generate_named(spec.instance);
  std::ostringstream os;
  os << "{\"algorithm\": \"seq\", \"include_routes\": true, ";
  if (spec.solomon) {
    std::ostringstream text;
    tsmo::write_solomon(text, inst);
    os << "\"solomon\": \"" << tsmo::JsonWriter::escape(text.str()) << "\"";
    std::istringstream is(text.str());
    inst = tsmo::read_solomon(is);
  } else {
    os << "\"instance\": \"" << spec.instance << "\"";
  }
  os << ", \"params\": {\"evaluations\": " << spec.evaluations
     << ", \"candidate_k\": " << spec.candidate_k << ", \"seed\": " << seed
     << "}}";
  Body b{os.str(), std::string(spec.instance) +
                       (spec.solomon ? "/solomon" : "/spec") + "/k" +
                       std::to_string(spec.candidate_k) + "/" +
                       std::to_string(spec.evaluations / 1000) + "k",
         std::move(inst)};
  b.solomon = spec.solomon;
  b.candidate_k = spec.candidate_k;
  b.evaluations = spec.evaluations;
  b.seed = seed;
  return b;
}

/// Switches telemetry and the flight recorder on for its lifetime, as
/// solver_cli --serve-jobs does for the whole server process.
struct ServedInstrumentation {
  ServedInstrumentation()
      : telemetry(tsmo::telemetry::set_enabled(true)),
        flight(tsmo::obs::FlightRecorder::set_enabled(true)) {}
  ~ServedInstrumentation() {
    tsmo::telemetry::set_enabled(telemetry);
    tsmo::obs::FlightRecorder::set_enabled(flight);
  }
  ServedInstrumentation(const ServedInstrumentation&) = delete;
  ServedInstrumentation& operator=(const ServedInstrumentation&) = delete;

  bool telemetry;
  bool flight;
};

/// Times the host-speed reference kernel on its own thread, every
/// kReferencePeriod, until finish().
class ReferenceSampler {
 public:
  ReferenceSampler()
      : thread_([this] {
          while (!done_.load()) {
            times_.push_back(reference_kernel_s());
            std::this_thread::sleep_for(kReferencePeriod);
          }
        }) {}
  ~ReferenceSampler() { finish(); }
  ReferenceSampler(const ReferenceSampler&) = delete;
  ReferenceSampler& operator=(const ReferenceSampler&) = delete;

  /// Stops the thread and returns the kernel times.
  const std::vector<double>& finish() {
    done_.store(true);
    if (thread_.joinable()) thread_.join();
    return times_;
  }

 private:
  std::atomic<bool> done_{false};
  std::vector<double> times_;
  std::thread thread_;
};

// --- Server process --------------------------------------------------------

struct Server {
  pid_t pid = -1;
  int port = 0;
  int out_fd = -1;
};

/// Starts solver_cli --serve-jobs into `s` (so a guard can stop it on any
/// failure) and returns once it answered its first request; `startup_s` is
/// the time from launch to that answer.
void launch(const std::string& exe, Server& s, double& startup_s) {
  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) throw std::runtime_error("pipe2");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, pipefd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null", O_WRONLY,
                                   0);
  std::vector<std::string> args = {exe,
                                   "--serve-jobs",
                                   "--serve",
                                   "0",
                                   "--job-workers",
                                   std::to_string(kExecutors),
                                   "--job-queue",
                                   std::to_string(kQueue)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const double t0 = now_s();
  const int rc =
      posix_spawn(&s.pid, exe.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(pipefd[1]);
  s.out_fd = pipefd[0];
  if (rc != 0) {
    s.pid = -1;
    throw std::runtime_error("cannot start " + exe + ": " +
                             std::strerror(rc));
  }
  // The server prints one parseable line with its ephemeral port.
  const std::string marker = "job server on http://127.0.0.1:";
  std::string out;
  for (;;) {
    const std::size_t at = out.find(marker);
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      s.port = std::atoi(out.c_str() + at + marker.size());
      break;
    }
    pollfd pfd{s.out_fd, POLLIN, 0};
    char buf[256];
    const ssize_t n =
        ::poll(&pfd, 1, 30000) > 0 ? ::read(s.out_fd, buf, sizeof(buf)) : -1;
    if (n <= 0) throw std::runtime_error("server did not start");
    out.append(buf, static_cast<std::size_t>(n));
  }
  std::string body;
  while (tsmo::obs::http_split_response(
             tsmo::obs::http_get(s.port, "/healthz"), body) == 0) {
    if (now_s() - t0 > 30.0) throw std::runtime_error("server never answered");
  }
  startup_s = now_s() - t0;
}

/// Peak resident set of a live process, MiB (VmHWM).
double peak_rss_mb(pid_t pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// CPU time of a live process over all its threads, seconds (utime +
/// stime).  Unlike wall time it leaves out the time the host does not run
/// the virtual CPUs (steal).
double process_cpu_s(pid_t pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(is, stat);
  // Fields after the parenthesized command name, which may hold spaces;
  // utime and stime are fields 14 and 15 of the line.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// SIGINT (graceful drain), then SIGKILL after 20 s; always reaps.
void stop(Server& s) {
  if (s.pid <= 0) {
    if (s.out_fd >= 0) ::close(s.out_fd);
    s.out_fd = -1;
    return;
  }
  ::kill(s.pid, SIGINT);
  int status = 0;
  const double t0 = now_s();
  while (::waitpid(s.pid, &status, WNOHANG) == 0) {
    if (now_s() - t0 > 20.0) {
      ::kill(s.pid, SIGKILL);
      ::waitpid(s.pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(s.out_fd);
  s.pid = -1;
  s.out_fd = -1;
}

/// Stops the server on every exit path, exceptions included.
struct ServerGuard {
  Server& s;
  ~ServerGuard() { stop(s); }
};

// --- Client ----------------------------------------------------------------

struct Reply {
  int status = 0;
  std::string body;
};

struct Client {
  int port = 0;
  Tracer* tracer = nullptr;
  std::size_t requests = 0;
  std::vector<double> submit_s, status_s, result_s;

  Reply call(const char* span, const std::string& method,
             const std::string& path, const std::string& payload,
             std::vector<double>& times) {
    Span sp(*tracer, span);
    const double t0 = now_s();
    Reply r;
    r.status = tsmo::obs::http_split_response(
        tsmo::obs::http_request(port, method, path, payload,
                                "application/json", 30000),
        r.body);
    times.push_back(now_s() - t0);
    ++requests;
    return r;
  }
};

struct Job {
  std::size_t body = 0;
  bool open_phase = true;
  double due = 0.0;
  double sent = 0.0;    ///< send start
  double posted = 0.0;  ///< POST /jobs answered
  double next_poll = 0.0;
  std::uint64_t trace = 0;  ///< the benchmark's trace id for this job
  std::string id;
  bool accepted = false;
  bool finished = false;
  std::string state;
  double wait_s = 0.0;  ///< server-reported queue wait
  double run_s = 0.0;   ///< server-reported run time
  double evaluations = 0.0;  ///< server-reported
  double fetch_s = 0.0;
  std::string archive_fp, trace_fp;
  bool ok = false;  ///< passed check_job
  std::string why;  ///< check failure

  /// When the client holds the result, on the client clock, from the
  /// server's own timestamps (no poll quantization): the POST answer, the
  /// queue wait and run the server reports, and the result fetch.
  double done_at() const { return posted + wait_s + run_s + fetch_s; }
  double completed_at() const { return posted + wait_s + run_s; }
};

std::string json_string(const tsmo::JsonValue& doc, const char* key) {
  const tsmo::JsonValue* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

double json_number(const tsmo::JsonValue& doc, const char* key) {
  const tsmo::JsonValue* v = doc.find(key);
  return v != nullptr ? v->as_double() : 0.0;
}

bool check_job(const Job& job, const std::string& result, const Body& b,
               std::string& why);

void submit(Client& c, Job& job, const std::vector<Body>& bodies) {
  job.trace = c.tracer->begin_unit();
  job.sent = now_s();
  const Reply r =
      c.call("obs.submit", "POST", "/jobs", bodies[job.body].json, c.submit_s);
  job.posted = now_s();
  job.next_poll = job.posted + kPollPeriodS;
  std::string err;
  const auto doc = tsmo::json_parse(r.body, &err);
  job.accepted = r.status == 202 && doc != nullptr;
  if (job.accepted) job.id = json_string(*doc, "id");
  if (!job.accepted) {
    job.finished = true;
    job.why = "not admitted (HTTP " + std::to_string(r.status) + ")";
  }
}

/// Polls one job; on a terminal state fetches and checks its result (the
/// check is not part of the job's latency).
void poll(Client& c, Job& job, const std::vector<Body>& bodies) {
  c.tracer->resume_unit(job.trace);
  const Reply r =
      c.call("obs.status", "GET", "/jobs/" + job.id, "", c.status_s);
  job.next_poll = now_s() + kPollPeriodS;
  std::string err;
  const auto doc = tsmo::json_parse(r.body, &err);
  if (r.status != 200 || doc == nullptr) {
    job.finished = true;
    job.state = "unreadable status";
    return;
  }
  job.state = json_string(*doc, "state");
  if (job.state == "queued" || job.state == "running") return;
  job.finished = true;
  job.wait_s = json_number(*doc, "wait_seconds");
  job.run_s = json_number(*doc, "run_seconds");
  job.evaluations = json_number(*doc, "evaluations");
  job.archive_fp = json_string(*doc, "archive_fingerprint");
  job.trace_fp = json_string(*doc, "trace_fingerprint");
  Reply res;
  if (job.state == "done") {
    const double t0 = now_s();
    res = c.call("obs.result", "GET", "/jobs/" + job.id + "/result", "",
                 c.result_s);
    job.fetch_s = now_s() - t0;
  }
  job.ok = check_job(job, res.status == 200 ? res.body : std::string(),
                     bodies[job.body], job.why);
}

/// Serves the due submission or the most overdue poll; sleeps otherwise.
/// Returns false when nothing is left to do.
bool step(Client& c, std::vector<Job>& jobs, std::size_t& next_send,
          std::size_t last_send, const std::vector<Body>& bodies) {
  const double now = now_s();
  if (next_send < last_send && now >= jobs[next_send].due) {
    submit(c, jobs[next_send++], bodies);
    return true;
  }
  Job* pending = nullptr;
  for (std::size_t i = 0; i < next_send; ++i) {
    Job& j = jobs[i];
    if (j.finished) continue;
    if (pending == nullptr || j.next_poll < pending->next_poll) pending = &j;
  }
  if (pending != nullptr && now >= pending->next_poll) {
    poll(c, *pending, bodies);
    return true;
  }
  if (pending == nullptr && next_send >= last_send) return false;
  double wake = pending != nullptr ? pending->next_poll : 1e300;
  if (next_send < last_send) wake = std::min(wake, jobs[next_send].due);
  const double nap = std::min(wake - now, 0.005);
  if (nap > 0) std::this_thread::sleep_for(std::chrono::duration<double>(nap));
  return true;
}

/// Re-evaluates every returned front member from its routes and compares
/// with the in-process reference: archive fingerprint over the re-evaluated
/// objectives (bitwise), the printed objectives, and every customer once.
bool check_job(const Job& job, const std::string& result, const Body& b,
               std::string& why) {
  if (job.state != "done") {
    why = "ended " + job.state;
    return false;
  }
  if (job.archive_fp != hex64(b.archive_fp) ||
      job.trace_fp != hex64(b.trace_fp)) {
    why = "fingerprints " + job.archive_fp + "/" + job.trace_fp +
          " differ from the in-process run " + hex64(b.archive_fp) + "/" +
          hex64(b.trace_fp);
    return false;
  }
  std::string err;
  const auto doc = tsmo::json_parse(result, &err);
  const tsmo::JsonValue* front = doc ? doc->find("front") : nullptr;
  if (front == nullptr || !front->is_array() || front->items().empty()) {
    why = "result has no front: " + err;
    return false;
  }
  std::vector<tsmo::Objectives> objs;
  for (const tsmo::JsonValue& m : front->items()) {
    const tsmo::JsonValue* routes = m.find("routes");
    if (routes == nullptr || !routes->is_array()) {
      why = "front member without routes";
      return false;
    }
    std::vector<std::vector<int>> rs;
    for (const tsmo::JsonValue& r : routes->items()) {
      std::vector<int> route;
      for (const tsmo::JsonValue& c : r.items()) {
        route.push_back(static_cast<int>(c.as_int64(-1)));
      }
      rs.push_back(std::move(route));
    }
    if (!serves_each_customer_once(b.instance, rs) ||
        static_cast<int>(rs.size()) > b.instance.max_vehicles()) {
      why = "routes do not serve every customer exactly once";
      return false;
    }
    const tsmo::Solution s = tsmo::Solution::from_routes(b.instance, rs);
    const tsmo::Objectives& o = s.objectives();
    char d[40], t[40];
    std::snprintf(d, sizeof(d), "%.10g", o.distance);
    std::snprintf(t, sizeof(t), "%.10g", o.tardiness);
    const tsmo::JsonValue* dist = m.find("distance");
    const tsmo::JsonValue* veh = m.find("vehicles");
    const tsmo::JsonValue* tard = m.find("tardiness");
    if (dist == nullptr || veh == nullptr || tard == nullptr ||
        dist->as_string() != d || tard->as_string() != t ||
        veh->as_int64(-1) != o.vehicles) {
      why = "printed objectives differ from the re-evaluated routes";
      return false;
    }
    objs.push_back(o);
  }
  if (tsmo::archive_fingerprint(objs) != b.archive_fp) {
    why = "re-evaluated front does not match the archive fingerprint";
    return false;
  }
  return true;
}

}  // namespace

std::vector<std::string> jobs_open_instances() {
  std::vector<std::string> out;
  for (const BodySpec& b : kMix) out.push_back(b.instance);
  return out;
}

void run_jobs_open(const Options& opt, Report& report, Tracer& tracer) {
  if (opt.solver_cli.empty()) throw std::runtime_error("--solver-cli missing");
  tracer.set_enabled(opt.trace);
  const std::map<std::string, double> targets = read_targets(opt);

  // The distinct bodies: every entry of kMix under kSeedsPerBody seeded
  // engine seeds.
  std::vector<Body> bodies;
  for (std::size_t i = 0; i < kMixSize; ++i) {
    const auto target = targets.find(kMix[i].instance);
    if (target == targets.end()) {
      throw std::runtime_error(std::string("no calibrated target for ") +
                               kMix[i].instance);
    }
    for (int k = 0; k < kSeedsPerBody; ++k) {
      const auto salt = 100 + i * 8 + static_cast<std::size_t>(k);
      bodies.push_back(make_body(kMix[i], mix_seed(opt.seed, salt)));
      bodies.back().target = target->second;
    }
  }
  // In-process reference of every distinct body, before any timed phase,
  // with telemetry and the flight recorder on as in solver_cli
  // --serve-jobs, so the in-process layer times compare with the server's.
  {
    const ServedInstrumentation served;
    for (Body& b : bodies) {
      tracer.begin_unit();
      Span sp(tracer, "harness.run_job_body");
      const double t0 = now_s();
      const tsmo::obs::JobOutcome o = tsmo::run_job_body(b.json, {});
      b.reference_s = now_s() - t0;
      if (!o.ok) throw std::runtime_error(b.label + ": " + o.error);
      b.archive_fp = o.archive_fingerprint;
      b.trace_fp = o.trace_fingerprint;
    }
  }

  // Engine pass, also before the timed phases: every body once more
  // through SequentialTsmo::run on this thread, CPU-timed as the offline
  // workloads time their solves (the reference kernel runs before each).
  // It gives the engine's time to target and the quality on this mix, and
  // must reproduce run_job_body's fingerprints.
  std::vector<double> engine_kernel_times;
  double ttt_sum = 0.0, log_hv = 0.0, dist_sum = 0.0, veh_sum = 0.0;
  for (Body& b : bodies) {
    engine_kernel_times.push_back(reference_kernel_s());
    const SolveOutcome o =
        run_solve(b.instance, "seq", body_params(b),
                  initial_objectives(b.instance, b.seed), b.target);
    const RunResult& r = o.result;
    std::string why;
    bool ok = check_result(b.instance, r, why);
    if (ok && r.feasible_front().empty()) {
      ok = false;
      why = "no feasible front member";
    }
    if (ok && (r.archive_fingerprint != b.archive_fp ||
               r.trace_fingerprint != b.trace_fp)) {
      ok = false;
      why = "fingerprints differ from run_job_body";
    }
    if (!ok) {
      std::cerr << "check failed: engine run of " << b.label << ": " << why
                << "\n";
    }
    report.operation(ok);
    ttt_sum += o.time_to_target_s;
    log_hv += std::log(
        tsmo::hypervolume(r.front, tsmo::convergence_reference(b.instance)) /
        b.target);
    dist_sum += r.best_feasible_distance();
    veh_sum += r.best_feasible_vehicles();
  }
  const double engine_scale = reference_scale(engine_kernel_times);

  // Set-up: launch to first answered request, median of several launches,
  // at reference speed, since a launch slows with the host as CPU work does
  // (see README.md); the last launch serves the measured phases.
  std::vector<double> startups, launch_kernel_times;
  Server server;
  ServerGuard guard{server};
  for (int l = 0; l < kLaunches; ++l) {
    launch_kernel_times.push_back(reference_kernel_s());
    double t = 0.0;
    launch(opt.solver_cli, server, t);
    startups.push_back(t);
    if (l + 1 < kLaunches) stop(server);
  }
  Client client;
  client.port = server.port;
  client.tracer = &tracer;

  // Seeded schedule.  Both phases send whole passes over the bodies, each
  // pass in a fresh seeded order, so every run sends the same mix.  The
  // open-loop arrival times are a Poisson process conditioned on its count
  // (sorted uniform times over the phase).
  tsmo::Rng rng(mix_seed(opt.seed, 7));
  std::vector<std::size_t> order;
  auto next_body = [&]() {
    if (order.empty()) {
      for (std::size_t i = 0; i < bodies.size(); ++i) order.push_back(i);
      for (std::size_t i = bodies.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.below(i + 1)]);
      }
    }
    const std::size_t b = order.back();
    order.pop_back();
    return b;
  };
  auto whole_passes = [&](double jobs_wanted) {
    const auto passes =
        std::llround(jobs_wanted / static_cast<double>(bodies.size()));
    return static_cast<std::size_t>(std::max<long long>(1, passes)) *
           bodies.size();
  };
  const double open_s = opt.seconds * kOpenShare;
  const std::size_t open_jobs = whole_passes(kArrivalsPerSecond * open_s);
  const std::size_t sat_jobs =
      whole_passes(kNominalCapacity * (opt.seconds - open_s));
  std::vector<Job> jobs(open_jobs);
  {
    std::vector<double> due;
    for (std::size_t i = 0; i < open_jobs; ++i) {
      due.push_back(rng.uniform() * open_s);
    }
    std::sort(due.begin(), due.end());
    for (std::size_t i = 0; i < open_jobs; ++i) {
      jobs[i].body = next_body();
      jobs[i].due = due[i];
    }
  }

  // Open-loop phase.
  ReferenceSampler reference;
  const double server_cpu_start = process_cpu_s(server.pid);
  const double open_start = now_s();
  for (Job& j : jobs) j.due += open_start;
  std::size_t next_send = 0;
  const std::size_t requests_before = client.requests;
  while (step(client, jobs, next_send, open_jobs, bodies)) {
  }
  const double open_end = now_s();
  const std::size_t open_requests = client.requests - requests_before;

  // Saturation phase: sat_jobs jobs, kSaturationJobs in the system at a
  // time.  Capacity counts completions after the warm-up and before the
  // last submission, while the backlog keeps both executors busy.
  const double sat_start = now_s();
  double sat_end = sat_start;
  jobs.reserve(jobs.size() + sat_jobs);
  for (;;) {
    std::size_t outstanding = 0;
    for (std::size_t i = open_jobs; i < jobs.size(); ++i) {
      if (!jobs[i].finished) ++outstanding;
    }
    if (jobs.size() < open_jobs + sat_jobs && outstanding < kSaturationJobs) {
      Job j;
      j.body = next_body();
      j.open_phase = false;
      j.due = now_s();
      jobs.push_back(j);
      submit(client, jobs.back(), bodies);
      sat_end = jobs.back().sent;
      continue;
    }
    if (outstanding == 0) break;
    std::size_t sent = jobs.size();
    if (!step(client, jobs, sent, jobs.size(), bodies)) break;
  }
  const double server_cpu = process_cpu_s(server.pid) - server_cpu_start;
  const double server_rss = peak_rss_mb(server.pid);
  stop(server);
  const std::vector<double>& kernel_times = reference.finish();
  const double scale = reference_scale(kernel_times);

  // Checks, outside the timed phases.
  std::vector<double> latency, lag, waits, runs, completions;
  std::size_t accepted = 0, done = 0;
  double evaluations = 0.0;
  double open_run_sum = 0.0, last_open_done = open_start;
  for (const Job& j : jobs) {
    const bool ok = j.ok;
    if (!ok) {
      std::cerr << "check failed: " << bodies[j.body].label << " " << j.id
                << ": " << j.why << "\n";
    }
    report.operation(ok);
    if (j.accepted) ++accepted;
    if (ok) {
      ++done;
      evaluations += j.evaluations;
    }
    if (j.open_phase) {
      // A failed job is charged the whole open-loop phase, longer than
      // any completed job's latency.
      latency.push_back(ok ? j.done_at() - j.due : open_end - open_start);
      lag.push_back(j.sent - j.due);
      waits.push_back(j.wait_s);
      runs.push_back(j.run_s);
      open_run_sum += j.run_s;
      last_open_done = std::max(last_open_done, j.completed_at());
    } else if (ok && j.completed_at() >= sat_start + kSaturationWarmupS &&
               j.completed_at() <= sat_end) {
      completions.push_back(j.completed_at());
    }
  }
  const double lag_p90 = quantile(lag, 0.9);
  if (lag_p90 > kMaxLagP90S) {
    std::cerr << "invalid run: the open-loop generator fell behind (p90 lag "
              << lag_p90 << " s)\n";
    report.valid = false;
  }
  std::sort(completions.begin(), completions.end());
  const double capacity =
      completions.size() < 2
          ? 0.0
          : static_cast<double>(completions.size() - 1) /
                (completions.back() - completions.front());

  std::printf("%-22s %-18s %-18s %9s\n", "body", "archive_fp", "trace_fp",
              "inproc_s");
  for (const Body& b : bodies) {
    std::printf("%-22s %-18s %-18s %9.4f\n", b.label.c_str(),
                hex64(b.archive_fp).c_str(), hex64(b.trace_fp).c_str(),
                b.reference_s);
  }
  std::printf("open loop: %zu jobs over %.1f s (drained after %.2f s); "
              "saturation: %zu jobs, %zu completions in the window\n",
              open_jobs, open_s, open_end - open_start, sat_jobs,
              completions.size());
  std::printf("generator lag p90 %.6f s, client %.1f requests/s\n", lag_p90,
              static_cast<double>(open_requests) / (open_end - open_start));
  std::printf("latency p50 %.4f s, p90 %.4f s (%zu jobs); capacity %.2f "
              "jobs/s; server %.3f CPU s over %zu completed jobs\n",
              quantile(latency, 0.5), quantile(latency, 0.9), latency.size(),
              capacity, server_cpu, done);
  std::printf("reference kernel: median %.6f CPU s over %zu runs during "
              "the phases, scale %.4f; %.6f CPU s over %zu runs in the "
              "engine pass, scale %.4f\n",
              median(kernel_times), kernel_times.size(), scale,
              median(engine_kernel_times), engine_kernel_times.size(),
              engine_scale);

  if (!opt.trace) {
    const double n = static_cast<double>(bodies.size());
    report.add("setup_s",
               median(startups) * reference_scale(launch_kernel_times), "s",
               startups.size());
    report.add("evals_per_s", evaluations / (server_cpu * scale), "1/s",
               done);
    report.add("time_to_target_s", ttt_sum * engine_scale, "s",
               bodies.size());
    report.add("hv_ratio", std::exp(log_hv / n), "ratio", bodies.size());
    report.add("best_distance", dist_sum / n, "distance", bodies.size());
    report.add("min_vehicles", veh_sum / n, "vehicles", bodies.size());
    report.add("success_ratio",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "ratio", static_cast<std::size_t>(report.attempted));
    report.add("peak_rss_mb", server_rss, "MB", 1);
    return;
  }

  // Traced run: the in-process layers of every distinct body, untraced and
  // traced (the ratio is the tracing overhead), instrumented as the server
  // is, plus the client's view.
  double untraced = 0.0, traced = 0.0;
  const std::size_t first_span = tracer.size();
  const ServedInstrumentation served;
  tsmo::telemetry::Registry::instance().reset();
  LayerSums sums;
  // Each body runs untraced and traced, alternating which goes first, so
  // warm-up falls on both sides alike.
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const Body& b = bodies[i];
    for (std::size_t k = 0; k < 2; ++k) {
      const bool traced_pass = (i + k) % 2 == 1;
      tracer.set_enabled(traced_pass);
      tracer.begin_unit();
      Span unit(tracer, "job.inprocess");
      const double t0 = now_s();
      std::unique_ptr<tsmo::JsonValue> doc;
      {
        Span sp(tracer, "harness.parse");
        std::string err;
        doc = tsmo::json_parse(b.json, &err);
      }
      std::optional<Instance> inst;
      {
        Span sp(tracer, "vrptw.instance_build");
        if (b.solomon) {
          std::istringstream is(doc->find("solomon")->as_string());
          inst.emplace(tsmo::read_solomon(is));
        } else {
          inst.emplace(
              tsmo::generate_named(doc->find("instance")->as_string()));
        }
      }
      const tsmo::TsmoParams p = body_params(b);
      tsmo::RunResult r;
      {
        Span sp(tracer, "parallel.solve.seq");
        r = drive_seq(*inst, p, tracer);
      }
      add_introspect(r, sums);
      {
        Span sp(tracer, "harness.result_json");
        std::ostringstream os;
        tsmo::write_run_json(os, *inst, r, true);
      }
      (traced_pass ? traced : untraced) += now_s() - t0;
      const bool same = r.archive_fingerprint == b.archive_fp &&
                        r.trace_fingerprint == b.trace_fp;
      if (!same) {
        std::cerr << "check failed: in-process drive of " << b.label
                  << " differs from run_job_body\n";
      }
      report.operation(same);
    }
  }
  add_telemetry(tsmo::telemetry::Registry::instance().snapshot(false), sums);
  const auto layers = tracer.layer_times(first_span, tracer.size());
  const auto n = static_cast<double>(bodies.size());
  const std::size_t nb = bodies.size();
  // Spans come from the traced pass only; the registry and introspect sums
  // from both passes.
  auto per_body = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_s / n;
  };
  auto per_solve = [&](const char* key) { return sums[key] / (2.0 * n); };
  auto ratio = [&](const char* num, const char* den) {
    return sums[den] > 0.0 ? sums[num] / sums[den] : 0.0;
  };
  double reference_sum = 0.0;
  for (const Body& b : bodies) reference_sum += b.reference_s;
  report.add("bench.reference_kernel_s", median(kernel_times), "s",
             kernel_times.size());
  report.add("vrptw.instance_build_s", per_body("vrptw.instance_build"), "s",
             nb);
  report.add("construct.i1_s", per_body("construct.i1"), "s", nb);
  report.add("operators.generate_s", per_body("operators.generate"), "s", nb);
  report.add("operators.price_s", per_solve("price_s"), "s", 2 * nb);
  report.add("operators.screen_pass_ratio",
             1.0 - ratio("screen_rejects", "screen_checks"), "ratio", 2 * nb);
  report.add("operators.proposed", per_solve("proposed"), "count", 2 * nb);
  report.add("core.step_s", per_body("core.step"), "s", nb);
  report.add("core.tabu_hit_ratio", ratio("tabu_hits", "tabu_checked"),
             "ratio", 2 * nb);
  report.add("core.restarts", per_solve("restarts"), "count", 2 * nb);
  report.add("moo.archive_insert_s", per_solve("archive_insert_s"), "s",
             2 * nb);
  report.add("moo.archive_accept_ratio",
             ratio("archive_inserts", "archive_attempts"), "ratio", 2 * nb);
  report.add("parallel.solve_s.seq", per_body("parallel.solve.seq"), "s", nb);
  report.add("harness.result_json_s", per_body("harness.result_json"), "s",
             nb);
  report.add("bench.tracing_overhead_ratio", traced / untraced, "ratio", nb);

  // Layers only this workload runs.  The wall-clock service metrics follow
  // the host's speed too closely to carry a bound (see README.md).
  report.detail("latency_p50_s", quantile(latency, 0.5), "s", latency.size());
  report.detail("latency_p90_s", quantile(latency, 0.9), "s", latency.size());
  report.detail("capacity_jobs_per_s", capacity, "1/s", completions.size());
  report.detail("vrptw.candidate_list_s", per_body("vrptw.candidate_list"),
                "s", nb);
  report.detail("harness.parse_s", per_body("harness.parse"), "s", nb);
  report.detail("harness.run_job_body_s", reference_sum / n, "s", nb);
  report.detail("obs.submit_s", median(client.submit_s), "s",
                client.submit_s.size());
  report.detail("obs.status_s", median(client.status_s), "s",
                client.status_s.size());
  report.detail("obs.result_s", median(client.result_s), "s",
                client.result_s.size());
  report.detail("obs.queue_wait_p50_s", quantile(waits, 0.5), "s",
                waits.size());
  report.detail("obs.queue_wait_p90_s", quantile(waits, 0.9), "s",
                waits.size());
  report.detail("obs.run_s", open_run_sum / static_cast<double>(runs.size()),
                "s", runs.size());
  report.detail("obs.executor_busy_ratio",
                open_run_sum / (kExecutors * (last_open_done - open_start)),
                "ratio", runs.size());
  report.detail("obs.accepted_ratio",
                static_cast<double>(accepted) /
                    static_cast<double>(jobs.size()),
                "ratio", jobs.size());
  report.detail("bench.generator_lag_p90_s", lag_p90, "s", lag.size());
  report.detail("bench.client_requests_per_s",
                static_cast<double>(open_requests) / (open_end - open_start),
                "1/s", open_requests);
}

}  // namespace perfbench
