#include "obs/job_manager.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "util/json.hpp"
#include "util/profiler.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace tsmo::obs {

namespace {

constexpr const char* kJsonContentType = "application/json; charset=utf-8";

/// Submit-to-first-front latency target [ms]: successful jobs slower than
/// this count into Stats::first_front_slow.
constexpr double kFirstFrontTargetMs = 2000.0;

/// uint64 as "0x%016x": JSON numbers are doubles downstream, which would
/// silently round fingerprints above 2^53, so they travel as hex strings.
std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::string error_body(const std::string& message) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("error").value(message);
  w.end_object();
  os << '\n';
  return os.str();
}

/// Seed declared in the job body ("params": {"seed": N}); defaults to the
/// TsmoParams default so trace ids stay deterministic for seedless bodies.
std::uint64_t seed_of_body(const JsonValue& doc) {
  const JsonValue* params = doc.find("params");
  if (params == nullptr || !params->is_object()) return 1;
  const JsonValue* seed = params->find("seed");
  if (seed == nullptr || !seed->is_number()) return 1;
  return static_cast<std::uint64_t>(seed->as_int64(1));
}

/// ns as fractional µs ("1234.567"), the Chrome trace timestamp unit.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

void write_front(JsonWriter& w, const std::vector<Objectives>& front) {
  w.begin_array();
  for (const Objectives& o : front) {
    w.begin_object();
    w.key("distance").value(o.distance);
    w.key("vehicles").value(o.vehicles);
    w.key("tardiness").value(o.tardiness);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

JobManager::JobManager(JobManagerConfig config, JobRunner runner)
    : config_(config),
      runner_(std::move(runner)),
      queue_(config.queue_capacity) {}

JobManager::~JobManager() { shutdown(); }

void JobManager::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_ || stopping_) return;
  started_ = true;
  const int n = config_.executors < 1 ? 1 : config_.executors;
  executors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

void JobManager::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Close first so executors blocked in pop_wait() wake, then sweep the
  // registry: ids the queue handed back can never be popped, so they are
  // terminal now; everything else non-terminal gets its cancel flag
  // raised so in-flight engines drain cooperatively.
  const std::vector<std::uint64_t> drained = queue_.close();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint64_t id : drained) {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      Job& job = *it->second;
      if (job.state != JobState::kQueued) continue;
      job.cancel.store(true, std::memory_order_release);
      job.state = JobState::kCancelled;
      job.finish_ns = now_ns();
      ++cancelled_;
    }
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (!is_terminal(job->state)) {
        job->cancel.store(true, std::memory_order_release);
      }
    }
  }
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();
  TSMO_GAUGE_SET("jobs.queue_depth", 0.0);
}

// ---------------------------------------------------------------------------
// Executor side
// ---------------------------------------------------------------------------

void JobManager::executor_loop() {
  while (std::optional<std::uint64_t> id = queue_.pop_wait()) {
    Job* job = nullptr;
    std::uint64_t wait_ns = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = jobs_.find(*id);
      if (it == jobs_.end()) continue;
      // Cancelled while queued: already terminal, nothing to run.
      if (it->second->state != JobState::kQueued) continue;
      job = it->second.get();
      job->state = JobState::kRunning;
      job->start_ns = now_ns();
      job->run_span_id = telemetry::next_span_id(job->trace_id);
      wait_ns = job->start_ns - job->submit_ns;
      ++running_;
    }
    TSMO_RECORD_NS("jobs.queue_wait_ns", static_cast<std::int64_t>(wait_ns));
    TSMO_GAUGE_SET("jobs.queue_depth",
                   static_cast<double>(queue_.depth()));
    if (FlightRecorder::enabled()) {
      FlightRecorder::instance().record(
          FlightKind::kJobStart, job->name.c_str(), 0, 0,
          static_cast<std::int64_t>(wait_ns / 1000000), job->trace_id);
    }
    log::debug("jobs")
        .msg("start")
        .str("id", job->name)
        .hex("trace_id", job->trace_id)
        .f64("wait_seconds", static_cast<double>(wait_ns) / 1.0e9);
    run_job(*job);
  }
}

void JobManager::run_job(Job& job) {
  JobContext ctx;
  ctx.cancel = &job.cancel;
  ctx.publish = [&job](const ConvergenceRecorder* rec) {
    std::lock_guard<std::mutex> lock(job.live_mutex);
    job.live = rec;
  };
  ctx.publish_introspect = [&job](const LiveIntrospect* hub) {
    std::lock_guard<std::mutex> lock(job.live_mutex);
    job.live_introspect = hub;
  };
  ctx.trace = telemetry::TraceContext{job.trace_id, job.run_span_id};
  // Collect every span recorded under this trace id while the runner is on
  // the stack; engine threads are joined before the runner returns, so the
  // detach below cannot strand a late append.
  telemetry::Registry::instance().attach_trace(job.trace_id,
                                               job.trace_buf.get());
  // Ambient scope for the executor thread itself, so manager/runner-side
  // spans and log lines correlate to the job.
  telemetry::TraceScope trace_scope(ctx.trace);
  JobOutcome out;
  try {
    out = runner_(job.body, ctx);
  } catch (const std::exception& e) {
    out = JobOutcome{};
    out.error = std::string("job runner threw: ") + e.what();
  } catch (...) {
    out = JobOutcome{};
    out.error = "job runner threw a non-standard exception";
  }
  telemetry::Registry::instance().detach_trace(job.trace_id);
  {
    // Defensive retract: the recorder and hub die with the runner frame.
    std::lock_guard<std::mutex> lock(job.live_mutex);
    job.live = nullptr;
    job.live_introspect = nullptr;
  }
  finish_job(job, std::move(out));
}

void JobManager::finish_job(Job& job, JobOutcome outcome) {
  JobState terminal;
  std::uint64_t run_ns = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.outcome = std::move(outcome);
    job.finish_ns = now_ns();
    run_ns = job.finish_ns - job.start_ns;
    if (job.cancel.load(std::memory_order_acquire)) {
      terminal = JobState::kCancelled;
      ++cancelled_;
    } else if (job.outcome.ok) {
      terminal = JobState::kDone;
      ++done_;
      // Submit-to-first-front latency (queue wait + runner time until the
      // archive accepted its first point) against the target.
      // A successful job that never produced a front counts as slow.
      ++first_front_total_;
      const std::uint64_t to_first_ns =
          (job.start_ns - job.submit_ns) + job.outcome.first_front_ns;
      const double to_first_ms = static_cast<double>(to_first_ns) / 1.0e6;
      if (job.outcome.first_front_ns == 0 ||
          to_first_ms > kFirstFrontTargetMs) {
        ++first_front_slow_;
      }
    } else {
      terminal = JobState::kFailed;
      ++failed_;
    }
    job.state = terminal;
    --running_;
    // Manager-side lifecycle spans, appended directly (not through the
    // registry) so /jobs/<id>/trace has the submit→queue→run skeleton even
    // when telemetry is compiled out or disabled.  tid -1 = the job plane.
    if (job.trace_buf != nullptr) {
      job.trace_buf->append(telemetry::TraceSpan{
          "job.queue_wait", -1, job.submit_ns, job.start_ns - job.submit_ns,
          telemetry::next_span_id(job.trace_id), job.root_span_id, 0});
      job.trace_buf->append(telemetry::TraceSpan{"job.run", -1, job.start_ns,
                                                 run_ns, job.run_span_id,
                                                 job.root_span_id, 0});
      job.trace_buf->append(telemetry::TraceSpan{
          "job", -1, job.submit_ns, job.finish_ns - job.submit_ns,
          job.root_span_id, 0, 0});
    }
  }
  switch (terminal) {
    case JobState::kDone:
      TSMO_COUNT("jobs.done");
      break;
    case JobState::kFailed:
      TSMO_COUNT("jobs.failed");
      break;
    default:
      TSMO_COUNT("jobs.cancelled");
      break;
  }
  TSMO_RECORD_NS("jobs.run_ns", static_cast<std::int64_t>(run_ns));
  if (FlightRecorder::enabled()) {
    FlightRecorder::instance().record(
        FlightKind::kJobFinish, job.name.c_str(),
        static_cast<std::int32_t>(terminal), 0,
        static_cast<std::int64_t>(run_ns / 1000000), job.trace_id);
  }
  // Scope (re-)established here so the auto-injected correlation id also
  // covers the cancel-from-queue path, where no executor scope is active.
  telemetry::TraceScope scope(
      telemetry::TraceContext{job.trace_id, job.root_span_id});
  log::Event event = terminal == JobState::kFailed ? log::warn("jobs")
                                                   : log::info("jobs");
  event.msg("finish")
      .str("id", job.name)
      .str("state", to_string(terminal))
      .f64("run_seconds", static_cast<double>(run_ns) / 1.0e9);
  if (!job.outcome.error.empty()) event.str("error", job.outcome.error);
}

// ---------------------------------------------------------------------------
// API side
// ---------------------------------------------------------------------------

JobManager::ApiResponse JobManager::submit(const std::string& body) {
  // Validate before taking the lock: parsing is the expensive part and
  // needs nothing from the registry.
  std::string parse_error;
  const std::unique_ptr<JsonValue> doc = json_parse(body, &parse_error);
  if (!doc) {
    return {400, error_body("invalid JSON: " + parse_error), 0};
  }
  if (!doc->is_object()) {
    return {400, error_body("job body must be a JSON object"), 0};
  }
  const JsonValue* instance = doc->find("instance");
  const JsonValue* solomon = doc->find("solomon");
  if ((instance == nullptr || !instance->is_string()) &&
      (solomon == nullptr || !solomon->is_string())) {
    return {400,
            error_body("job needs an \"instance\" (generator spec) or "
                       "\"solomon\" (instance text) string field"),
            0};
  }

  const std::uint64_t body_seed = seed_of_body(*doc);
  std::string name;
  std::size_t depth = 0;
  std::uint64_t trace_id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++submitted_;
    if (stopping_ || !started_) {
      return {503, error_body("job plane is not accepting work"), 0};
    }
    const std::uint64_t id = next_id_++;
    auto job = std::make_unique<Job>();
    job->id = id;
    job->name = "job-" + std::to_string(id);
    job->body = body;
    job->submit_ns = now_ns();
    // Deterministic trace id: seed mixed with the job id, so concurrent
    // identical-seed submissions still get distinct traces while the id
    // sequence stays a pure function of submission order (no wall clock,
    // no RNG).
    job->trace_id = telemetry::derive_trace_id(
        body_seed ^ (id * 0x9e3779b97f4a7c15ULL));
    job->root_span_id = telemetry::next_span_id(job->trace_id);
    job->trace_buf =
        std::make_shared<telemetry::TraceBuffer>(config_.trace_span_budget);
    trace_id = job->trace_id;
    if (!queue_.try_push(id)) {
      ++rejected_;
      // The id is burned, not reused: names stay unique for the whole
      // process lifetime even across rejections.
      TSMO_COUNT("jobs.rejected");
      log::warn("jobs").msg("rejected").str("id", job->name).i64(
          "queue_capacity", static_cast<std::int64_t>(queue_.capacity()));
      std::ostringstream os;
      JsonWriter w(os);
      w.begin_object();
      w.key("error").value("job queue full");
      w.key("queue_capacity")
          .value(static_cast<std::int64_t>(queue_.capacity()));
      w.key("retry_after_seconds").value(config_.retry_after_seconds);
      w.end_object();
      os << '\n';
      return {429, os.str(), config_.retry_after_seconds};
    }
    ++accepted_;
    name = job->name;
    depth = queue_.depth();
    jobs_.emplace(id, std::move(job));
  }
  TSMO_COUNT("jobs.accepted");
  TSMO_GAUGE_SET("jobs.queue_depth", static_cast<double>(depth));
  if (FlightRecorder::enabled()) {
    FlightRecorder::instance().record(FlightKind::kJobSubmit, name.c_str(),
                                      static_cast<std::int32_t>(depth), 0, 0,
                                      trace_id);
  }
  log::info("jobs")
      .msg("accepted")
      .str("id", name)
      .hex("trace_id", trace_id)
      .i64("queue_depth", static_cast<std::int64_t>(depth));
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("id").value(name);
  w.key("state").value("queued");
  w.key("queue_depth").value(static_cast<std::int64_t>(depth));
  w.key("trace_id").value(hex64(trace_id));
  w.key("status_url").value("/jobs/" + name);
  w.key("result_url").value("/jobs/" + name + "/result");
  w.key("trace_url").value("/jobs/" + name + "/trace");
  w.key("introspect_url").value("/jobs/" + name + "/introspect");
  w.key("profile_url").value("/jobs/" + name + "/profile");
  w.end_object();
  os << '\n';
  return {202, os.str(), 0, trace_id, name};
}

JobManager::Job* JobManager::find(const std::string& name) const {
  constexpr const char* kPrefix = "job-";
  if (name.rfind(kPrefix, 0) != 0) return nullptr;
  const char* digits = name.c_str() + 4;
  if (*digits == '\0') return nullptr;
  char* end = nullptr;
  const unsigned long long id = std::strtoull(digits, &end, 10);
  if (end == nullptr || *end != '\0') return nullptr;
  const auto it = jobs_.find(static_cast<std::uint64_t>(id));
  return it == jobs_.end() ? nullptr : it->second.get();
}

void JobManager::write_job_status(const Job& job, std::string& out) const {
  // Caller holds mutex_; the live-front block below re-reads under the
  // job's own live mutex after mutex_ is no longer needed for fields.
  std::ostringstream os;
  JsonWriter w(os);
  const std::uint64_t now = now_ns();
  w.begin_object();
  w.key("id").value(job.name);
  w.key("state").value(to_string(job.state));
  w.key("trace_id").value(hex64(job.trace_id));
  w.key("trace_url").value("/jobs/" + job.name + "/trace");
  w.key("cancel_requested")
      .value(job.cancel.load(std::memory_order_relaxed));
  if (job.start_ns != 0) {
    w.key("wait_seconds")
        .value(static_cast<double>(job.start_ns - job.submit_ns) / 1.0e9);
    const std::uint64_t until = job.finish_ns != 0 ? job.finish_ns : now;
    w.key("run_seconds")
        .value(until <= job.start_ns
                   ? 0.0
                   : static_cast<double>(until - job.start_ns) / 1.0e9);
  }
  if (is_terminal(job.state)) {
    const JobOutcome& o = job.outcome;
    if (!o.error.empty()) w.key("error").value(o.error);
    if (!o.algorithm.empty()) w.key("algorithm").value(o.algorithm);
    if (!o.instance.empty()) w.key("instance").value(o.instance);
    if (o.ok || job.state == JobState::kCancelled) {
      w.key("evaluations").value(o.evaluations);
      w.key("wall_seconds").value(o.wall_seconds);
      w.key("stopped_early").value(o.stopped_early);
      w.key("front_size").value(static_cast<std::int64_t>(o.front_size));
      w.key("trace_fingerprint").value(hex64(o.trace_fingerprint));
      w.key("archive_fingerprint").value(hex64(o.archive_fingerprint));
      w.key("has_result").value(!o.result_json.empty());
    }
  } else if (job.state == JobState::kRunning) {
    std::lock_guard<std::mutex> live_lock(job.live_mutex);
    if (job.live != nullptr) {
      const ConvergenceRecorder::LiveStatus live = job.live->live_status();
      w.key("live").begin_object();
      w.key("engine").value(live.engine.empty() ? "pending" : live.engine);
      w.key("hv_global").value(live.hv_global);
      w.key("front_size")
          .value(static_cast<std::int64_t>(live.front.size()));
      w.key("front");
      write_front(w, live.front);
      w.key("samples").value(static_cast<std::int64_t>(live.samples));
      w.key("insertions").value(static_cast<std::int64_t>(live.insertions));
      w.end_object();
    }
  }
  w.end_object();
  os << '\n';
  out = os.str();
}

JobManager::ApiResponse JobManager::status_of(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Job* job = find(name);
  if (job == nullptr) return {404, error_body("unknown job: " + name), 0};
  ApiResponse res;
  res.status = 200;
  res.trace_id = job->trace_id;
  res.trace_label = job->name;
  write_job_status(*job, res.body);
  return res;
}

JobManager::ApiResponse JobManager::result_of(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Job* job = find(name);
  if (job == nullptr) return {404, error_body("unknown job: " + name), 0};
  ApiResponse res;
  res.trace_id = job->trace_id;
  res.trace_label = job->name;
  if (!is_terminal(job->state)) {
    // Not ready yet: the status document tells the client where it is.
    res.status = 409;
    write_job_status(*job, res.body);
    return res;
  }
  if (job->state == JobState::kFailed) {
    res.status = 500;
    res.body = error_body(job->outcome.error.empty() ? "job failed"
                                                     : job->outcome.error);
    return res;
  }
  if (job->outcome.result_json.empty()) {
    // Cancelled before it ever ran: there is no result to serve.
    res.status = 409;
    write_job_status(*job, res.body);
    return res;
  }
  res.status = 200;
  res.body = job->outcome.result_json;
  return res;
}

void JobManager::write_job_trace(const Job& job, std::string& out) const {
  const std::vector<telemetry::TraceSpan> spans =
      job.trace_buf != nullptr ? job.trace_buf->snapshot()
                               : std::vector<telemetry::TraceSpan>{};
  out = "{\"traceEvents\":[";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":"
         "{\"name\":\"tsmo ";
  out += job.name;  // "job-<digits>", no escaping needed
  out += "\"}}";
  for (const telemetry::TraceSpan& s : spans) {
    out += ",\n{\"name\":\"";
    out += JsonWriter::escape(s.name);
    out += "\",\"cat\":\"tsmo\"";
    if (s.kind == 1) {
      out += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      append_us(out, s.start_ns);
    } else {
      out += ",\"ph\":\"X\",\"ts\":";
      append_us(out, s.start_ns);
      out += ",\"dur\":";
      append_us(out, s.dur_ns);
    }
    out += ",\"pid\":0,\"tid\":";
    out += std::to_string(s.tid);
    out += ",\"args\":{\"trace\":\"";
    out += hex64(job.trace_id);
    out += "\",\"span\":\"";
    out += hex64(s.span_id);
    out += "\",\"parent\":\"";
    out += hex64(s.parent_id);
    out += "\"}}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"job\":\"";
  out += job.name;
  out += "\",\"state\":\"";
  out += to_string(job.state);
  out += "\",\"trace_id\":\"";
  out += hex64(job.trace_id);
  out += "\",\"spans\":";
  out += std::to_string(spans.size());
  out += ",\"dropped_spans\":";
  out += std::to_string(job.trace_buf != nullptr ? job.trace_buf->dropped()
                                                 : 0);
  out += ",\"span_budget\":";
  out += std::to_string(job.trace_buf != nullptr ? job.trace_buf->budget()
                                                 : 0);
  out += "}}\n";
}

JobManager::ApiResponse JobManager::trace_of(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Job* job = find(name);
  if (job == nullptr) return {404, error_body("unknown job: " + name), 0};
  ApiResponse res;
  res.status = 200;
  res.trace_id = job->trace_id;
  res.trace_label = job->name;
  write_job_trace(*job, res.body);
  return res;
}

JobManager::ApiResponse JobManager::introspect_of(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Job* job = find(name);
  if (job == nullptr) return {404, error_body("unknown job: " + name), 0};
  ApiResponse res;
  res.trace_id = job->trace_id;
  res.trace_label = job->name;
  {
    std::lock_guard<std::mutex> live_lock(job->live_mutex);
    if (job->live_introspect != nullptr) {
      res.status = 200;
      res.body = job->live_introspect->to_json();
      res.body += '\n';
      return res;
    }
  }
  if (is_terminal(job->state) && !job->outcome.introspect_json.empty()) {
    res.status = 200;
    res.body = job->outcome.introspect_json;
    if (res.body.empty() || res.body.back() != '\n') res.body += '\n';
    return res;
  }
  res.status = 409;
  res.body = error_body(
      "no introspection data for " + name +
      " (submit with params {\"introspect\": true}, or poll while running)");
  return res;
}

JobManager::ApiResponse JobManager::profile_of(
    const std::string& name, const std::string& format) const {
  std::uint64_t trace_id = 0;
  std::string job_name;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const Job* job = find(name);
    if (job == nullptr) return {404, error_body("unknown job: " + name), 0};
    trace_id = job->trace_id;
    job_name = job->name;
  }
  ApiResponse res;
  res.trace_id = trace_id;
  res.trace_label = job_name;
  if (!prof::enabled()) {
    res.status = 409;
    res.body = error_body(
        "profiler disabled (submit with params {\"profile_hz\": N} or serve "
        "with --profile-hz)");
    return res;
  }
  // Only this job's samples: the sampler stamps every sample with the
  // ambient trace id, which the runner threads inherit from the job.
  const std::vector<prof::Sample> samples = prof::collect(trace_id);
  res.status = 200;
  if (format == "speedscope") {
    std::ostringstream os;
    prof::write_speedscope(os, samples, "tsmo " + job_name);
    res.body = os.str();
  } else {
    res.body = prof::fold(samples);
    res.content_type = "text/plain; charset=utf-8";
  }
  return res;
}

JobManager::ApiResponse JobManager::cancel(const std::string& name) {
  bool was_running = false;
  std::string body;
  std::uint64_t trace_id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Job* job = find(name);
    if (job == nullptr) return {404, error_body("unknown job: " + name), 0};
    trace_id = job->trace_id;
    if (is_terminal(job->state)) {
      ApiResponse res;
      res.status = 409;
      res.trace_id = trace_id;
      res.trace_label = job->name;
      write_job_status(*job, res.body);
      return res;
    }
    was_running = job->state == JobState::kRunning;
    job->cancel.store(true, std::memory_order_release);
    if (!was_running) {
      // Still queued: terminal immediately; the executor that eventually
      // pops the id sees a non-queued state and skips it.
      job->state = JobState::kCancelled;
      job->finish_ns = now_ns();
      ++cancelled_;
    }
    write_job_status(*job, body);
  }
  TSMO_COUNT("jobs.cancel_requests");
  if (!was_running) TSMO_COUNT("jobs.cancelled");
  if (FlightRecorder::enabled()) {
    FlightRecorder::instance().record(FlightKind::kJobCancel, name.c_str(),
                                      was_running ? 1 : 0, 0, 0, trace_id);
  }
  log::info("jobs")
      .msg("cancel")
      .str("id", name)
      .hex("trace_id", trace_id)
      .i64("was_running", was_running ? 1 : 0);
  return {202, body, 0, trace_id, name};
}

JobManager::ApiResponse JobManager::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("jobs").begin_array();
  for (const auto& [id, job] : jobs_) {
    (void)id;
    w.begin_object();
    w.key("id").value(job->name);
    w.key("state").value(to_string(job->state));
    if (is_terminal(job->state) && !job->outcome.error.empty()) {
      w.key("error").value(job->outcome.error);
    }
    w.end_object();
  }
  w.end_array();
  w.key("stats").begin_object();
  w.key("submitted").value(static_cast<std::int64_t>(submitted_));
  w.key("accepted").value(static_cast<std::int64_t>(accepted_));
  w.key("rejected").value(static_cast<std::int64_t>(rejected_));
  w.key("done").value(static_cast<std::int64_t>(done_));
  w.key("failed").value(static_cast<std::int64_t>(failed_));
  w.key("cancelled").value(static_cast<std::int64_t>(cancelled_));
  w.key("running").value(static_cast<std::int64_t>(running_));
  w.key("queue_depth").value(static_cast<std::int64_t>(queue_.depth()));
  w.key("queue_capacity")
      .value(static_cast<std::int64_t>(queue_.capacity()));
  w.key("executors").value(config_.executors < 1 ? 1 : config_.executors);
  w.end_object();
  w.end_object();
  os << '\n';
  return {200, os.str(), 0};
}

JobManager::Stats JobManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.submitted = submitted_;
  s.accepted = accepted_;
  s.rejected = rejected_;
  s.done = done_;
  s.failed = failed_;
  s.cancelled = cancelled_;
  s.first_front_total = first_front_total_;
  s.first_front_slow = first_front_slow_;
  s.queue_depth = queue_.depth();
  s.running = running_;
  s.queue_capacity = queue_.capacity();
  s.executors = config_.executors < 1 ? 1 : config_.executors;
  return s;
}

JobManager::JobView JobManager::view(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JobView v;
  const Job* job = find(name);
  if (job == nullptr) return v;
  v.id = job->id;
  v.name = job->name;
  v.state = job->state;
  v.error = job->outcome.error;
  v.algorithm = job->outcome.algorithm;
  v.trace_fingerprint = job->outcome.trace_fingerprint;
  v.archive_fingerprint = job->outcome.archive_fingerprint;
  v.front_size = job->outcome.front_size;
  v.stopped_early = job->outcome.stopped_early;
  return v;
}

void JobManager::install_routes(HttpServer& server) {
  const auto apply = [](const ApiResponse& a, HttpResponse& res) {
    res.status = a.status;
    res.content_type =
        a.content_type.empty() ? kJsonContentType : a.content_type;
    res.body = a.body;
    res.trace_id = a.trace_id;
    res.trace_label = a.trace_label;
    if (a.retry_after > 0) {
      res.headers.emplace_back("Retry-After",
                               std::to_string(a.retry_after));
    }
  };
  server.route("POST", "/jobs",
               [this, apply](const HttpRequest& req, HttpResponse& res) {
                 apply(submit(req.body), res);
               });
  server.route("GET", "/jobs",
               [this, apply](const HttpRequest&, HttpResponse& res) {
                 apply(list(), res);
               });
  server.route_prefix(
      "GET", "/jobs/",
      [this, apply](const HttpRequest& req, HttpResponse& res) {
        std::string rest = req.path.substr(6);  // after "/jobs/"
        const std::string kResult = "/result";
        const std::string kTrace = "/trace";
        const std::string kIntrospect = "/introspect";
        const std::string kProfile = "/profile";
        const auto ends_with = [&rest](const std::string& suffix) {
          return rest.size() > suffix.size() &&
                 rest.compare(rest.size() - suffix.size(), suffix.size(),
                              suffix) == 0;
        };
        const auto strip = [&rest](const std::string& suffix) {
          return rest.substr(0, rest.size() - suffix.size());
        };
        if (ends_with(kResult)) {
          apply(result_of(strip(kResult)), res);
        } else if (ends_with(kTrace)) {
          apply(trace_of(strip(kTrace)), res);
        } else if (ends_with(kIntrospect)) {
          apply(introspect_of(strip(kIntrospect)), res);
        } else if (ends_with(kProfile)) {
          // ?format=speedscope switches from the default folded text.
          std::string format;
          const std::string key = "format=";
          const std::size_t at = req.query.find(key);
          if (at != std::string::npos) {
            const std::size_t start = at + key.size();
            const std::size_t amp = req.query.find('&', start);
            format = req.query.substr(start, amp == std::string::npos
                                                 ? std::string::npos
                                                 : amp - start);
          }
          apply(profile_of(strip(kProfile), format), res);
        } else {
          apply(status_of(rest), res);
        }
      });
  server.route_prefix(
      "DELETE", "/jobs/",
      [this, apply](const HttpRequest& req, HttpResponse& res) {
        apply(cancel(req.path.substr(6)), res);
      });
}

}  // namespace tsmo::obs
