#include "obs/obs_server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "moo/introspect.hpp"
#include "obs/buildinfo.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/job_manager.hpp"
#include "util/json.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace tsmo::obs {

namespace {

constexpr const char* kMetricsContentType =
    "text/plain; version=0.0.4; charset=utf-8";
constexpr const char* kJsonContentType = "application/json; charset=utf-8";

/// A heartbeat younger than this counts as "busy" in /status.
constexpr double kBusyThresholdMs = 1000.0;

void append_gauge(std::string& out, const char* name, const char* help,
                  double value) {
  std::ostringstream v;
  v.precision(17);
  v << value;
  out += std::string("# HELP ") + name + " " + help + "\n";
  out += std::string("# TYPE ") + name + " gauge\n";
  out += std::string(name) + " " + v.str() + "\n";
}

void append_counter(std::string& out, const char* name, const char* help,
                    std::uint64_t value) {
  out += std::string("# HELP ") + name + " " + help + "\n";
  out += std::string("# TYPE ") + name + " counter\n";
  out += std::string(name) + " " + std::to_string(value) + "\n";
}

/// RED metrics per HTTP route with exemplars (DESIGN.md §13):
/// tsmo_http_requests_total{route,method,code} counters plus one
/// tsmo_http_request_duration_seconds histogram per route/method whose
/// highest non-empty bucket carries an OpenMetrics-style exemplar
/// (`# {trace_id="0x…",job="job-N"} <seconds>`) pointing at the slowest
/// request seen — the jump-off from a latency alert into /jobs/<id>/trace.
void append_http_red(std::string& out, const std::vector<RouteStat>& stats) {
  if (stats.empty()) return;
  auto fmt_double = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  out +=
      "# HELP tsmo_http_requests_total HTTP requests served, by registered "
      "route pattern, method and status code.\n"
      "# TYPE tsmo_http_requests_total counter\n";
  for (const RouteStat& s : stats) {
    for (const auto& [code, n] : s.by_status) {
      out += "tsmo_http_requests_total{route=\"" +
             escape_label_value(s.route) + "\",method=\"" +
             escape_label_value(s.method) + "\",code=\"" +
             std::to_string(code) + "\"} " + std::to_string(n) + "\n";
    }
  }
  out +=
      "# HELP tsmo_http_request_duration_seconds HTTP request latency by "
      "route and method; slowest buckets carry trace exemplars.\n"
      "# TYPE tsmo_http_request_duration_seconds histogram\n";
  for (const RouteStat& s : stats) {
    const std::string labels = "route=\"" + escape_label_value(s.route) +
                               "\",method=\"" + escape_label_value(s.method) +
                               "\"";
    int last = static_cast<int>(s.buckets.size()) - 1;
    while (last > 0 && s.buckets[last] == 0) --last;
    std::uint64_t cum = 0;
    for (int b = 0; b <= last; ++b) {
      cum += s.buckets[b];
      const double le_seconds =
          b == 0 ? 0.0 : std::ldexp(1.0, b) * 1e-9;
      out += "tsmo_http_request_duration_seconds_bucket{" + labels +
             ",le=\"" + fmt_double(le_seconds) + "\"} " +
             std::to_string(cum);
      if (b == last && s.exemplar_trace != 0) {
        char ex[96];
        std::snprintf(ex, sizeof(ex), " # {trace_id=\"0x%016llx\"",
                      static_cast<unsigned long long>(s.exemplar_trace));
        out += ex;
        if (!s.exemplar_label.empty()) {
          out += ",job=\"" + escape_label_value(s.exemplar_label) + "\"";
        }
        out += "} " + fmt_double(static_cast<double>(s.max_ns) * 1e-9);
      }
      out += "\n";
    }
    out += "tsmo_http_request_duration_seconds_bucket{" + labels +
           ",le=\"+Inf\"} " + std::to_string(s.count) + "\n";
    out += "tsmo_http_request_duration_seconds_sum{" + labels + "} " +
           fmt_double(static_cast<double>(s.sum_ns) * 1e-9) + "\n";
    out += "tsmo_http_request_duration_seconds_count{" + labels + "} " +
           std::to_string(s.count) + "\n";
  }
}

/// Value of `key` in an application/x-www-form-urlencoded query string;
/// empty when absent.  No percent-decoding — profile params are plain
/// integers/identifiers.
std::string query_param(const std::string& query, const std::string& key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return "";
}

void write_heartbeats(JsonWriter& w, const HeartbeatBoard& board,
                      std::uint64_t now) {
  w.begin_array();
  for (const HeartbeatBoard::Reading& r : board.read_all()) {
    const double age_ms =
        r.last_beat_ns == 0 || now <= r.last_beat_ns
            ? 0.0
            : static_cast<double>(now - r.last_beat_ns) / 1.0e6;
    w.begin_object();
    w.key("slot").value(r.slot);
    w.key("label").value(r.label);
    w.key("started").value(r.last_beat_ns != 0);
    w.key("age_ms").value(age_ms);
    w.key("progress").value(static_cast<std::int64_t>(r.progress));
    w.key("beats").value(static_cast<std::int64_t>(r.beats));
    w.key("busy").value(r.last_beat_ns != 0 && age_ms < kBusyThresholdMs);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

ObsServer::ObsServer(Options opts)
    : server_(opts.port, opts.handler_threads) {
  server_.route("/metrics", [this](const HttpRequest&, HttpResponse& res) {
    handle_metrics(res);
  });
  server_.route("/healthz", [this](const HttpRequest&, HttpResponse& res) {
    handle_healthz(res);
  });
  server_.route("/status", [this](const HttpRequest&, HttpResponse& res) {
    handle_status(res);
  });
  server_.route("/debug/profile",
                [this](const HttpRequest& req, HttpResponse& res) {
                  handle_debug_profile(req, res);
                });
  server_.route("/buildinfo", [](const HttpRequest&, HttpResponse& res) {
    std::ostringstream os;
    write_buildinfo_json(os);
    res.content_type = kJsonContentType;
    res.body = os.str();
  });
  server_.route("/", [this](const HttpRequest&, HttpResponse& res) {
    res.body =
        "tsmo operational plane\n"
        "  /metrics    Prometheus exposition of the telemetry registry\n"
        "  /healthz    liveness + stall watchdog\n"
        "  /status     live Pareto front and per-worker progress\n"
        "  /buildinfo  git sha, compiler, flags, start time\n"
        "  /debug/profile?seconds=N&format=folded|speedscope  CPU profile "
        "window\n";
    if (jobs_ != nullptr) {
      res.body +=
          "  /jobs       POST submit, GET list; /jobs/<id> status, "
          "/jobs/<id>/result, /jobs/<id>/trace, /jobs/<id>/profile, "
          "/jobs/<id>/introspect, DELETE cancel\n";
    }
  });
}

void ObsServer::attach_jobs(JobManager* jobs) {
  jobs_ = jobs;
  if (jobs_ != nullptr) jobs_->install_routes(server_);
}

bool ObsServer::start() {
  start_ns_ = now_ns();
  const bool ok = server_.start();
  if (ok && FlightRecorder::enabled()) {
    FlightRecorder::instance().record(FlightKind::kServeStart, nullptr, 0,
                                      port());
  }
  return ok;
}

void ObsServer::stop() {
  if (!server_.running()) return;
  const int p = port();
  server_.stop();
  if (FlightRecorder::enabled()) {
    FlightRecorder::instance().record(FlightKind::kServeStop, nullptr, 0, p);
  }
}

void ObsServer::handle_debug_profile(const HttpRequest& req,
                                     HttpResponse& res) {
  if (!prof::enabled()) {
    res.status = 409;
    res.content_type = kJsonContentType;
    res.body =
        "{\"error\":\"profiler disabled\",\"hint\":\"start a run with "
        "--profile-hz N (or params.profile_hz) to arm the sampler\"}\n";
    return;
  }
  int seconds = 2;
  const std::string s = query_param(req.query, "seconds");
  if (!s.empty()) {
    seconds = std::atoi(s.c_str());
    seconds = std::clamp(seconds, 0, 30);
  }
  const std::string format = query_param(req.query, "format");
  // Window: remember the ring heads, sleep, then collect only what the
  // sampler appended in between.  seconds=0 dumps everything retained.
  if (seconds == 0) {
    const std::vector<prof::Sample> samples = prof::collect();
    if (format == "speedscope") {
      std::ostringstream os;
      prof::write_speedscope(os, samples, "tsmo process profile");
      res.content_type = kJsonContentType;
      res.body = os.str();
    } else {
      res.body = prof::fold(samples);
    }
    return;
  }
  const prof::Cursor cur = prof::cursor();
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  const std::vector<prof::Sample> samples = prof::collect_since(cur);
  if (format == "speedscope") {
    std::ostringstream os;
    prof::write_speedscope(os, samples, "tsmo process profile");
    res.content_type = kJsonContentType;
    res.body = os.str();
  } else {
    res.body = prof::fold(samples);
  }
}

void ObsServer::handle_metrics(HttpResponse& res) {
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream os;
#if TSMO_TELEMETRY_ENABLED
  // Metrics-only snapshot: the span rings are plain records and may be
  // mid-write on worker threads during a live scrape.
  write_prometheus(
      os, telemetry::Registry::instance().snapshot(/*include_spans=*/false));
#endif
  std::string body = os.str();
  append_counter(body, "tsmo_obs_scrapes_total",
                 "Scrapes of /metrics answered by this process.",
                 scrapes_.load(std::memory_order_relaxed));
  append_counter(body, "tsmo_obs_flight_events_total",
                 "Events recorded by the flight recorder ring.",
                 FlightRecorder::instance().recorded());
  append_http_red(body, server_.route_stats());
  if (jobs_ != nullptr) {
    const JobManager::Stats js = jobs_->stats();
    append_counter(body, "tsmo_jobs_submitted_total",
                   "POST /jobs submissions that reached admission.",
                   js.submitted);
    append_counter(body, "tsmo_jobs_accepted_total",
                   "Jobs admitted into the bounded queue.", js.accepted);
    append_counter(body, "tsmo_jobs_rejected_total",
                   "Jobs refused with 429 by admission control.",
                   js.rejected);
    append_counter(body, "tsmo_jobs_done_total",
                   "Jobs that finished successfully.", js.done);
    append_counter(body, "tsmo_jobs_failed_total", "Jobs that failed.",
                   js.failed);
    append_counter(body, "tsmo_jobs_cancelled_total",
                   "Jobs cancelled while queued or running.", js.cancelled);
    append_gauge(body, "tsmo_jobs_queue_depth",
                 "Jobs waiting in the admission queue.",
                 static_cast<double>(js.queue_depth));
    append_gauge(body, "tsmo_jobs_running",
                 "Jobs currently executing on the pool.",
                 static_cast<double>(js.running));
    append_counter(body, "tsmo_jobs_first_front_total",
                   "Successful jobs classified against the submit-to-"
                   "first-front latency target.",
                   js.first_front_total);
    append_counter(body, "tsmo_jobs_first_front_slow_total",
                   "Successful jobs whose submit-to-first-front latency "
                   "missed the target.",
                   js.first_front_slow);
  }
  // Standard process gauges (satellite: node-exporter-style basics so a
  // bare scrape config gets memory/CPU without a sidecar).
  const ProcessStats ps = read_process_stats();
  append_gauge(body, "tsmo_process_resident_memory_bytes",
               "Resident set size from /proc/self/statm (0 off-Linux).",
               ps.resident_memory_bytes);
  append_gauge(body, "tsmo_process_cpu_seconds_total",
               "Process utime+stime from /proc/self/stat (0 off-Linux).",
               ps.cpu_seconds_total);
  append_gauge(body, "tsmo_process_open_fds",
               "Open file descriptors from /proc/self/fd (0 off-Linux).",
               ps.open_fds);
  append_gauge(body, "tsmo_process_uptime_seconds",
               "Process age from /proc/self/stat starttime (0 off-Linux).",
               ps.uptime_seconds);
  {
    const prof::Stats pstats = prof::stats();
    append_gauge(body, "tsmo_profiler_enabled",
                 "1 while the sampling profiler is armed.",
                 pstats.enabled ? 1.0 : 0.0);
    append_counter(body, "tsmo_profiler_samples_total",
                   "Stack samples captured across all thread rings.",
                   pstats.samples_captured);
    append_counter(body, "tsmo_profiler_ring_drops_total",
                   "Samples rotated out of a full per-thread ring.",
                   pstats.ring_drops);
  }
  {
    int hubs = 0;
    const IntrospectStats agg = IntrospectRegistry::instance().aggregate(&hubs);
    append_gauge(body, "tsmo_search_hubs",
                 "Live introspection hubs (one per active run/job).",
                 static_cast<double>(hubs));
    if (hubs > 0) {
      append_counter(body, "tsmo_search_steps_total",
                     "Tabu-search steps across all live searchers.",
                     agg.steps);
      append_counter(body, "tsmo_search_proposals_total",
                     "Candidate moves generated across all live searchers.",
                     agg.total_proposed());
      append_counter(body, "tsmo_search_accepted_total",
                     "Candidate moves selected as the step.",
                     agg.total_accepted());
      append_counter(body, "tsmo_search_improving_total",
                     "Selected moves that entered the Pareto archive.",
                     agg.total_improving());
      append_counter(body, "tsmo_search_restarts_total",
                     "Diversification restarts across all live searchers.",
                     agg.restarts);
      append_counter(body, "tsmo_search_tabu_hits_total",
                     "Candidates rejected by the tabu list.", agg.tabu_hits);
      append_counter(body, "tsmo_search_tabu_checked_total",
                     "Candidates tested against the tabu list.",
                     agg.tabu_checked);
      append_counter(body, "tsmo_search_archive_inserts_total",
                     "Archive insertions across all live searchers.",
                     agg.archive_inserts);
      append_counter(body, "tsmo_search_archive_evictions_total",
                     "Crowding evictions across all live searchers.",
                     agg.archive_evictions);
      append_gauge(body, "tsmo_search_tabu_occupancy",
                   "Summed tabu-list occupancy across live searchers.",
                   static_cast<double>(agg.tabu_occupancy_now));
      append_gauge(body, "tsmo_search_archive_size",
                   "Summed archive size across live searchers.",
                   static_cast<double>(agg.archive_size_now));
    }
  }
  if (const ConvergenceRecorder* rec =
          recorder_.load(std::memory_order_acquire)) {
    const ConvergenceRecorder::LiveStatus live = rec->live_status();
    append_gauge(body, "tsmo_pareto_hypervolume",
                 "Anytime hypervolume of the global non-dominated set.",
                 live.hv_global);
    append_gauge(body, "tsmo_pareto_front_size",
                 "Points in the global non-dominated set.",
                 static_cast<double>(live.front.size()));
    append_gauge(body, "tsmo_workers_stalled",
                 "Heartbeat slots currently flagged by the stall watchdog.",
                 static_cast<double>(rec->stalled_count()));
    append_gauge(body, "tsmo_iterations_progress",
                 "Summed per-slot progress counters (searcher iterations).",
                 static_cast<double>(rec->board().total_progress()));
  }
  res.content_type = kMetricsContentType;
  res.body = std::move(body);
}

void ObsServer::handle_healthz(HttpResponse& res) {
  const ConvergenceRecorder* rec = recorder_.load(std::memory_order_acquire);
  const std::uint64_t now = now_ns();
  const int stalled = rec ? rec->stalled_count() : 0;
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("status").value(stalled > 0 ? "stalled" : "ok");
  w.key("uptime_seconds")
      .value(static_cast<double>(now - start_ns_) / 1.0e9);
  w.key("uptime_s").value(process_uptime_s());
  w.key("start_time_unix_ms").value(process_start_unix_ms());
  w.key("build").begin_object();
  w.key("git_sha").value(build_info().git_sha);
  w.end_object();
  w.key("stalled_now").value(stalled);
  w.key("stalls_flagged")
      .value(static_cast<std::int64_t>(rec ? rec->stalls_flagged() : 0));
  w.key("flight_events")
      .value(static_cast<std::int64_t>(FlightRecorder::instance().recorded()));
  {
    const prof::Stats pstats = prof::stats();
    w.key("profiler").begin_object();
    w.key("supported").value(prof::supported());
    w.key("enabled").value(pstats.enabled);
    w.key("rate_hz").value(pstats.rate_hz);
    w.key("samples_captured")
        .value(static_cast<std::int64_t>(pstats.samples_captured));
    w.key("ring_drops").value(static_cast<std::int64_t>(pstats.ring_drops));
    w.key("frames_truncated")
        .value(static_cast<std::int64_t>(pstats.frames_truncated));
    w.key("threads_registered").value(pstats.threads_registered);
    w.end_object();
  }
  if (jobs_ != nullptr) {
    const JobManager::Stats js = jobs_->stats();
    w.key("jobs").begin_object();
    w.key("queue_depth").value(static_cast<std::int64_t>(js.queue_depth));
    w.key("queue_capacity")
        .value(static_cast<std::int64_t>(js.queue_capacity));
    w.key("running").value(static_cast<std::int64_t>(js.running));
    w.key("executors").value(js.executors);
    w.key("accepted").value(static_cast<std::int64_t>(js.accepted));
    w.key("done").value(static_cast<std::int64_t>(js.done));
    w.key("failed").value(static_cast<std::int64_t>(js.failed));
    w.key("cancelled").value(static_cast<std::int64_t>(js.cancelled));
    w.key("rejected").value(static_cast<std::int64_t>(js.rejected));
    w.end_object();
  }
  w.key("heartbeats");
  if (rec) {
    write_heartbeats(w, rec->board(), now);
  } else {
    w.begin_array().end_array();
  }
  w.end_object();
  os << '\n';
  res.content_type = kJsonContentType;
  res.body = os.str();
}

void ObsServer::handle_status(HttpResponse& res) {
  const ConvergenceRecorder* rec = recorder_.load(std::memory_order_acquire);
  const std::uint64_t now = now_ns();
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  if (!rec) {
    w.key("engine").value("idle");
    w.key("attached").value(false);
    w.end_object();
  } else {
    const ConvergenceRecorder::LiveStatus live = rec->live_status();
    w.key("engine").value(live.engine.empty() ? "pending" : live.engine);
    w.key("attached").value(true);
    w.key("hv_global").value(live.hv_global);
    w.key("front_size")
        .value(static_cast<std::int64_t>(live.front.size()));
    w.key("front").begin_array();
    for (const Objectives& o : live.front) {
      w.begin_object();
      w.key("distance").value(o.distance);
      w.key("vehicles").value(o.vehicles);
      w.key("tardiness").value(o.tardiness);
      w.end_object();
    }
    w.end_array();
    w.key("samples").value(static_cast<std::int64_t>(live.samples));
    w.key("insertions").value(static_cast<std::int64_t>(live.insertions));
    w.key("stalls").value(static_cast<std::int64_t>(live.stalls));
    w.key("iterations")
        .value(static_cast<std::int64_t>(rec->board().total_progress()));
    const double run_s =
        live.engine_start_ns == 0 || now <= live.engine_start_ns
            ? 0.0
            : static_cast<double>(now - live.engine_start_ns) / 1.0e9;
    w.key("run_seconds").value(run_s);
    w.key("workers");
    write_heartbeats(w, rec->board(), now);
    w.end_object();
  }
  os << '\n';
  res.content_type = kJsonContentType;
  res.body = os.str();
}

}  // namespace tsmo::obs
