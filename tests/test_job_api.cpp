// Black-box HTTP conformance of the job plane (DESIGN.md §12): full
// submit → poll → result lifecycle, input validation (400), unknown ids
// (404), method discipline (405), admission control (429 + Retry-After),
// and mid-run cancellation yielding a stopped_early partial result.
// Everything here talks to the server over real sockets — the same path
// external clients use.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "harness/job_runner.hpp"
#include "obs/http_server.hpp"
#include "obs/job_manager.hpp"
#include "obs/obs_server.hpp"
#include "util/json.hpp"
#include "util/telemetry.hpp"
#include "vrptw/generator.hpp"
#include "vrptw/solomon_io.hpp"

namespace tsmo {
namespace {

/// One service instance on an ephemeral port: ObsServer + JobManager wired
/// exactly like `solver_cli --serve-jobs`.
struct JobService {
  explicit JobService(obs::JobManagerConfig config = {})
      : jobs(config, make_job_runner()) {
    server.attach_jobs(&jobs);
    EXPECT_TRUE(server.start()) << server.reason();
    jobs.start();
  }
  ~JobService() {
    jobs.shutdown();
    server.stop();
  }

  int port() const noexcept { return server.port(); }

  /// Issues one request, returns the status and fills `body`.
  int request(const std::string& method, const std::string& path,
              const std::string& payload, std::string& body,
              std::string* raw_out = nullptr) {
    const std::string raw =
        obs::http_request(port(), method, path, payload);
    if (raw_out != nullptr) *raw_out = raw;
    return obs::http_split_response(raw, body);
  }

  obs::JobManager jobs;
  obs::ObsServer server;
};

/// A quick seq job on a generated instance (~milliseconds).
std::string quick_body(std::uint64_t seed = 7,
                       std::int64_t evaluations = 3000) {
  std::ostringstream os;
  os << "{\"instance\": \"R1_1_1\", \"algorithm\": \"seq\", \"params\": "
     << "{\"evaluations\": " << evaluations << ", \"seed\": " << seed
     << "}}";
  return os.str();
}

/// A job big enough to still be running when we cancel it.
std::string long_body() {
  return "{\"instance\": \"R1_1_1\", \"algorithm\": \"seq\", \"params\": "
         "{\"evaluations\": 500000000, \"neighborhood\": 60}}";
}

std::string id_of(const std::string& submit_body) {
  const std::unique_ptr<JsonValue> doc = json_parse(submit_body);
  if (!doc) return "";
  const JsonValue* id = doc->find("id");
  return id != nullptr && id->is_string() ? id->as_string() : "";
}

std::string state_of(JobService& svc, const std::string& id) {
  std::string body;
  if (svc.request("GET", "/jobs/" + id, "", body) != 200) return "";
  const std::unique_ptr<JsonValue> doc = json_parse(body);
  if (!doc) return "";
  const JsonValue* state = doc->find("state");
  return state != nullptr ? state->as_string() : "";
}

/// Polls until the job reaches `want` (or any terminal state when `want`
/// is empty); false on timeout.
bool wait_for_state(JobService& svc, const std::string& id,
                    const std::string& want, int timeout_ms = 30000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string state = state_of(svc, id);
    if (!want.empty() && state == want) return true;
    if (want.empty() && (state == "done" || state == "failed" ||
                         state == "cancelled")) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(JobApi, SubmitPollResultLifecycle) {
  JobService svc;
  std::string body;
  ASSERT_EQ(svc.request("POST", "/jobs", quick_body(), body), 202) << body;
  const std::string id = id_of(body);
  ASSERT_FALSE(id.empty()) << body;
  EXPECT_NE(body.find("\"state\": \"queued\""), std::string::npos);
  EXPECT_NE(body.find("\"status_url\": \"/jobs/" + id + "\""),
            std::string::npos);

  ASSERT_TRUE(wait_for_state(svc, id, "done"));

  // Terminal status carries the run summary with hex fingerprints.
  ASSERT_EQ(svc.request("GET", "/jobs/" + id, "", body), 200);
  EXPECT_NE(body.find("\"algorithm\": \"sequential\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"trace_fingerprint\": \"0x"), std::string::npos);
  EXPECT_NE(body.find("\"archive_fingerprint\": \"0x"), std::string::npos);
  EXPECT_NE(body.find("\"stopped_early\": false"), std::string::npos);

  // The result is the full RunResult document.
  ASSERT_EQ(svc.request("GET", "/jobs/" + id + "/result", "", body), 200);
  const std::unique_ptr<JsonValue> doc = json_parse(body);
  ASSERT_NE(doc, nullptr) << body.substr(0, 300);
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("algorithm")->as_string(), "sequential");
  EXPECT_EQ(doc->find("instance")->find("name")->as_string(), "R1_1_1");
  EXPECT_EQ(doc->find("evaluations")->as_int64(), 3000);
  ASSERT_NE(doc->find("front"), nullptr);
  EXPECT_GT(doc->find("front")->size(), 0u);
  ASSERT_NE(doc->find("archive_fingerprint"), nullptr);
  EXPECT_EQ(doc->find("archive_fingerprint")->as_string().substr(0, 2),
            "0x");

  // The listing reflects the terminal job and conserves the counters.
  ASSERT_EQ(svc.request("GET", "/jobs", "", body), 200);
  EXPECT_NE(body.find("\"id\": \"" + id + "\""), std::string::npos);
  EXPECT_NE(body.find("\"done\": 1"), std::string::npos) << body;
}

TEST(JobApi, SolomonTextBodyRoundTrips) {
  // Serialize a small generated instance to Solomon text and submit that
  // (bodies >1 KiB also exercise the Expect: 100-continue path).
  GeneratorConfig config;
  config.num_customers = 30;
  config.seed = 11;
  config.name = "job_api_R30";
  const Instance inst = generate_instance(config);
  std::ostringstream solomon;
  write_solomon(solomon, inst);

  std::ostringstream os;
  os << "{\"solomon\": \"" << JsonWriter::escape(solomon.str())
     << "\", \"params\": {\"evaluations\": 2000}}";

  JobService svc;
  std::string body;
  ASSERT_EQ(svc.request("POST", "/jobs", os.str(), body), 202) << body;
  const std::string id = id_of(body);
  ASSERT_TRUE(wait_for_state(svc, id, "done"));
  ASSERT_EQ(svc.request("GET", "/jobs/" + id + "/result", "", body), 200);
  EXPECT_NE(body.find("job_api_R30"), std::string::npos);
}

TEST(JobApi, MalformedSubmissionsGet400) {
  JobService svc;
  std::string body;
  EXPECT_EQ(svc.request("POST", "/jobs", "not json at all", body), 400);
  EXPECT_NE(body.find("error"), std::string::npos);
  EXPECT_EQ(svc.request("POST", "/jobs", "[1, 2, 3]", body), 400);
  EXPECT_EQ(svc.request("POST", "/jobs", "{\"algorithm\": \"seq\"}", body),
            400);
  EXPECT_NE(body.find("instance"), std::string::npos) << body;
  // Nothing was admitted.
  EXPECT_EQ(svc.jobs.stats().accepted, 0u);
}

TEST(JobApi, BadJobParametersFailTheJobNotTheServer) {
  JobService svc;
  std::string body;
  ASSERT_EQ(svc.request("POST", "/jobs",
                        "{\"instance\": \"NOPE_9_9\"}", body),
            202);
  const std::string bad_instance = id_of(body);
  ASSERT_EQ(svc.request("POST", "/jobs",
                        "{\"instance\": \"R1_1_1\", \"algorithm\": "
                        "\"warp\"}",
                        body),
            202);
  const std::string bad_algorithm = id_of(body);
  // Both bad: the algorithm is checked before the instance is built.
  ASSERT_EQ(svc.request("POST", "/jobs",
                        "{\"instance\": \"NOPE_9_9\", \"algorithm\": "
                        "\"warp\"}",
                        body),
            202);
  const std::string bad_both = id_of(body);

  ASSERT_TRUE(wait_for_state(svc, bad_instance, "failed"));
  ASSERT_TRUE(wait_for_state(svc, bad_algorithm, "failed"));
  ASSERT_TRUE(wait_for_state(svc, bad_both, "failed"));
  ASSERT_EQ(svc.request("GET", "/jobs/" + bad_algorithm, "", body), 200);
  EXPECT_NE(body.find("unknown algorithm"), std::string::npos) << body;
  ASSERT_EQ(svc.request("GET", "/jobs/" + bad_both, "", body), 200);
  EXPECT_NE(body.find("unknown algorithm: warp"), std::string::npos) << body;
  // A failed job has no result document.
  EXPECT_EQ(svc.request("GET", "/jobs/" + bad_instance + "/result", "",
                        body),
            500);
  // The plane is still healthy.
  ASSERT_EQ(svc.request("POST", "/jobs", quick_body(), body), 202);
  ASSERT_TRUE(wait_for_state(svc, id_of(body), "done"));
}

/// Submits `body`, waits for the job to end and returns its status body.
std::string finished_status(JobService& svc, const std::string& body) {
  std::string out;
  EXPECT_EQ(svc.request("POST", "/jobs", body, out), 202) << out;
  const std::string id = id_of(out);
  EXPECT_TRUE(wait_for_state(svc, id, ""));
  EXPECT_EQ(svc.request("GET", "/jobs/" + id, "", out), 200);
  return out;
}

/// A Solomon body: `customers` rows after the depot, fleet `vehicles`,
/// capacity 200; `last_row`, when given, replaces the last customer's row.
std::string solomon_body(int customers, const std::string& vehicles,
                         const std::string& last_row = "") {
  std::ostringstream text;
  text << "BIG\n\nVEHICLE\nNUMBER CAPACITY\n" << vehicles << " 200\n\n";
  text << "CUSTOMER\n0 50 50 0 0 1000 0\n";
  for (int i = 1; i <= customers; ++i) {
    if (i == customers && !last_row.empty()) {
      text << last_row << "\n";
      continue;
    }
    text << i << " " << i % 97 << " " << i % 89 << " 1 0 1000 1\n";
  }
  std::ostringstream os;
  os << "{\"solomon\": \"" << JsonWriter::escape(text.str())
     << "\", \"params\": {\"evaluations\": 200}}";
  return os.str();
}

TEST(JobApi, OversizedInputsFailTheJobNamingTheField) {
  JobService svc;
  const auto expect_failed = [&](const std::string& body,
                                 const std::string& error) {
    const std::string status = finished_status(svc, body);
    EXPECT_NE(status.find("\"state\": \"failed\""), std::string::npos)
        << body << " -> " << status;
    EXPECT_NE(status.find(error), std::string::npos)
        << body << " -> " << status;
  };
  // Would start 99 999 worker threads.
  expect_failed(
      "{\"instance\": \"R1_1_1\", \"algorithm\": \"sync\", "
      "\"processors\": 100000}",
      "processors: 100000 is outside [0, 64]");
  // 4294967496 is 200 after a silent int truncation; as an evaluation
  // budget it would run for hours.
  for (const char* field :
       {"evaluations", "neighborhood", "tenure", "archive", "restart_after",
        "candidate_k", "profile_hz"}) {
    expect_failed(std::string("{\"instance\": \"R1_1_1\", \"params\": "
                              "{\"") +
                      field + "\": 4294967496}}",
                  std::string("params.") + field + ": 4294967496 is outside");
  }
  expect_failed(
      "{\"instance\": \"R1_1_1\", \"params\": {\"neighborhood\": 1e300}}",
      "params.neighborhood: 9223372036854775807 is outside");
  // Saturates to 2^63 - 1: a job that runs until cancelled.
  expect_failed(
      "{\"instance\": \"R1_1_1\", \"algorithm\": \"seq\", \"params\": "
      "{\"evaluations\": 1e300, \"neighborhood\": 40}}",
      "params.evaluations: 9223372036854775807 is outside [0, 1000000000]");
  // 200 000 customers: a 320 GB distance matrix.
  expect_failed("{\"instance\": \"R1_2000_1\"}",
                "instance: R1_2000_1 has 200000 customers, above the job "
                "cap of 1000");
  expect_failed(solomon_body(1001, "25"),
                "solomon: read_solomon: more than 1000 customers");
  expect_failed(solomon_body(10, "1e30"), "solomon: read_solomon: VEHICLE");
  expect_failed(solomon_body(10, "1001"), "solomon: read_solomon: VEHICLE");
  // Numbers the parser reads but the engine must never see.
  expect_failed(solomon_body(10, "25", "10 10 10 1 0 inf 1"),
                "solomon: Instance: site 10 has a non-finite value");
  expect_failed(solomon_body(10, "25", "10 nan 10 1 0 1000 1"),
                "solomon: Instance: site 10 has a non-finite value");
  expect_failed(solomon_body(10, "25", "10 10 10 201 0 1000 1"),
                "solomon: Instance: customer 10 demand 201.00 exceeds "
                "capacity 200.00");

  // The largest admitted inputs still run.
  std::string status = finished_status(
      svc,
      "{\"instance\": \"R1_10_1\", \"algorithm\": \"sync\", "
      "\"processors\": 4, \"params\": {\"evaluations\": 400, "
      "\"candidate_k\": 16}}");
  EXPECT_NE(status.find("\"state\": \"done\""), std::string::npos)
      << status;
  status = finished_status(svc, solomon_body(1000, "1000"));
  EXPECT_NE(status.find("\"state\": \"done\""), std::string::npos)
      << status;
}

TEST(JobApi, UnknownIdsGet404) {
  JobService svc;
  std::string body;
  EXPECT_EQ(svc.request("GET", "/jobs/job-999", "", body), 404);
  EXPECT_EQ(svc.request("GET", "/jobs/job-999/result", "", body), 404);
  EXPECT_EQ(svc.request("DELETE", "/jobs/job-999", "", body), 404);
  EXPECT_EQ(svc.request("GET", "/jobs/banana", "", body), 404);
  EXPECT_EQ(svc.request("GET", "/jobs/job-", "", body), 404);
}

TEST(JobApi, WrongMethodsGet405) {
  JobService svc;
  std::string body;
  EXPECT_EQ(svc.request("PUT", "/jobs", "{}", body), 405);
  EXPECT_EQ(svc.request("DELETE", "/jobs", "", body), 405);
  EXPECT_EQ(svc.request("POST", "/jobs/job-1", "{}", body), 405);
  // The read-only plane rejects mutations too.
  EXPECT_EQ(svc.request("POST", "/metrics", "", body), 405);
}

TEST(JobApi, FullQueueGets429WithRetryAfter) {
  obs::JobManagerConfig config;
  config.queue_capacity = 1;
  config.executors = 1;
  config.retry_after_seconds = 3;
  JobService svc(config);

  // One long job occupies the single executor; the next fills the queue;
  // the third must be refused with backpressure advice.
  std::string body;
  ASSERT_EQ(svc.request("POST", "/jobs", long_body(), body), 202);
  const std::string running = id_of(body);
  ASSERT_TRUE(wait_for_state(svc, running, "running"));
  ASSERT_EQ(svc.request("POST", "/jobs", long_body(), body), 202);
  const std::string queued = id_of(body);

  std::string raw;
  ASSERT_EQ(svc.request("POST", "/jobs", quick_body(), body, &raw), 429)
      << body;
  EXPECT_EQ(obs::http_header(raw, "Retry-After"), "3") << raw;
  EXPECT_NE(body.find("queue full"), std::string::npos);
  EXPECT_EQ(svc.jobs.stats().rejected, 1u);

  // Cancel both so teardown is prompt.
  EXPECT_EQ(svc.request("DELETE", "/jobs/" + queued, "", body), 202);
  EXPECT_NE(body.find("\"state\": \"cancelled\""), std::string::npos);
  EXPECT_EQ(svc.request("DELETE", "/jobs/" + running, "", body), 202);
  ASSERT_TRUE(wait_for_state(svc, running, "cancelled"));

  // Rejected submissions never appear in the registry.
  ASSERT_EQ(svc.request("GET", "/jobs", "", body), 200);
  EXPECT_EQ(body.find("job-3"), std::string::npos) << body;
}

TEST(JobApi, MidRunCancelYieldsStoppedEarlyPartialResult) {
  JobService svc;
  std::string body;
  ASSERT_EQ(svc.request("POST", "/jobs", long_body(), body), 202);
  const std::string id = id_of(body);
  ASSERT_TRUE(wait_for_state(svc, id, "running"));

  // Result is not ready while the job runs: 409 with the status document.
  ASSERT_EQ(svc.request("GET", "/jobs/" + id + "/result", "", body), 409);
  EXPECT_NE(body.find("\"state\": \"running\""), std::string::npos);

  ASSERT_EQ(svc.request("DELETE", "/jobs/" + id, "", body), 202);
  EXPECT_NE(body.find("\"cancel_requested\": true"), std::string::npos);
  ASSERT_TRUE(wait_for_state(svc, id, "cancelled"));

  // The drained engine left a partial RunResult with stopped_early set.
  ASSERT_EQ(svc.request("GET", "/jobs/" + id + "/result", "", body), 200);
  const std::unique_ptr<JsonValue> doc = json_parse(body);
  ASSERT_NE(doc, nullptr) << body.substr(0, 300);
  ASSERT_NE(doc->find("stopped_early"), nullptr) << body.substr(0, 300);
  EXPECT_TRUE(doc->find("stopped_early")->as_bool());
  // Far fewer evaluations than the (absurd) budget: it really stopped.
  EXPECT_LT(doc->find("evaluations")->as_int64(), 500000000);

  // Cancelling a terminal job is refused.
  EXPECT_EQ(svc.request("DELETE", "/jobs/" + id, "", body), 409);
}

TEST(JobApi, CancelQueuedJobNeverRuns) {
  obs::JobManagerConfig config;
  config.queue_capacity = 4;
  config.executors = 1;
  JobService svc(config);

  std::string body;
  ASSERT_EQ(svc.request("POST", "/jobs", long_body(), body), 202);
  const std::string running = id_of(body);
  ASSERT_EQ(svc.request("POST", "/jobs", quick_body(), body), 202);
  const std::string queued = id_of(body);

  ASSERT_EQ(svc.request("DELETE", "/jobs/" + queued, "", body), 202);
  EXPECT_EQ(state_of(svc, queued), "cancelled");
  // No result ever existed for it.
  EXPECT_EQ(svc.request("GET", "/jobs/" + queued + "/result", "", body),
            409);

  ASSERT_EQ(svc.request("DELETE", "/jobs/" + running, "", body), 202);
  ASSERT_TRUE(wait_for_state(svc, running, "cancelled"));
  const obs::JobManager::Stats stats = svc.jobs.stats();
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.done, 0u);
}

TEST(JobApi, MetricsExposeJobCounters) {
  JobService svc;
  std::string body;
  ASSERT_EQ(svc.request("POST", "/jobs", quick_body(), body), 202);
  ASSERT_TRUE(wait_for_state(svc, id_of(body), "done"));
  ASSERT_EQ(svc.request("GET", "/metrics", "", body), 200);
  EXPECT_NE(body.find("tsmo_jobs_accepted_total 1"), std::string::npos)
      << body.substr(0, 400);
  EXPECT_NE(body.find("tsmo_jobs_done_total 1"), std::string::npos);
  EXPECT_NE(body.find("tsmo_jobs_queue_depth 0"), std::string::npos);
  ASSERT_EQ(svc.request("GET", "/", "", body), 200);
  EXPECT_NE(body.find("/jobs"), std::string::npos);
}

TEST(JobApi, TraceExportIsValidChromeTraceWithRootedSpans) {
  JobService svc;
  std::string body;
  // telemetry: true so engine/worker spans join the manager skeleton.
  ASSERT_EQ(svc.request("POST", "/jobs",
                        "{\"instance\": \"R1_1_1\", \"algorithm\": \"seq\", "
                        "\"params\": {\"evaluations\": 3000, \"telemetry\": "
                        "true}}",
                        body),
            202)
      << body;
  const std::string id = id_of(body);
  // The submit receipt advertises the causal ids and the trace endpoint.
  EXPECT_NE(body.find("\"trace_id\": \"0x"), std::string::npos) << body;
  EXPECT_NE(body.find("\"trace_url\": \"/jobs/" + id + "/trace\""),
            std::string::npos)
      << body;
  ASSERT_TRUE(wait_for_state(svc, id, "done"));

  ASSERT_EQ(svc.request("GET", "/jobs/" + id + "/trace", "", body), 200);
  std::string err;
  const std::unique_ptr<JsonValue> doc = json_parse(body, &err);
  ASSERT_NE(doc, nullptr) << err << "\n" << body.substr(0, 300);
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  const JsonValue* other = doc->find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->find("job")->as_string(), id);
  EXPECT_EQ(other->find("state")->as_string(), "done");
  const std::string trace_id = other->find("trace_id")->as_string();
  EXPECT_EQ(trace_id.substr(0, 2), "0x");
  EXPECT_NE(trace_id, "0x0000000000000000");
  EXPECT_GE(other->find("span_budget")->as_int64(), 1);
  EXPECT_GE(other->find("dropped_spans")->as_int64(), 0);

  // Every span event carries the job's trace id; parent links form a tree
  // with exactly one root (the "job" span, parent 0).
  std::set<std::string> span_ids;
  std::set<std::string> names;
  for (const JsonValue& ev : events->items()) {
    const JsonValue* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() == "M") continue;  // process metadata
    const JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->find("trace"), nullptr);
    EXPECT_EQ(args->find("trace")->as_string(), trace_id);
    span_ids.insert(args->find("span")->as_string());
    names.insert(ev.find("name")->as_string());
  }
  EXPECT_TRUE(names.count("job") == 1 && names.count("job.run") == 1 &&
              names.count("job.queue_wait") == 1)
      << body.substr(0, 500);
  int roots = 0;
  for (const JsonValue& ev : events->items()) {
    if (ev.find("ph")->as_string() == "M") continue;
    const std::string parent = ev.find("args")->find("parent")->as_string();
    if (parent == "0x0000000000000000") {
      ++roots;
      EXPECT_EQ(ev.find("name")->as_string(), "job");
    } else {
      EXPECT_EQ(span_ids.count(parent), 1u)
          << ev.find("name")->as_string() << " dangles from " << parent;
    }
  }
  EXPECT_EQ(roots, 1);
#if TSMO_TELEMETRY_ENABLED
  // With telemetry compiled in and requested, engine spans join the tree
  // under job.run.
  EXPECT_TRUE(names.count("run.sequential") == 1) << body.substr(0, 500);
#endif
}

TEST(JobApi, ConcurrentJobsGetDistinctTraceIds) {
  JobService svc;
  std::string body;
  // Identical bodies (same seed): trace ids must still differ per job.
  ASSERT_EQ(svc.request("POST", "/jobs", quick_body(7), body), 202);
  const std::string first = id_of(body);
  ASSERT_EQ(svc.request("POST", "/jobs", quick_body(7), body), 202);
  const std::string second = id_of(body);
  ASSERT_TRUE(wait_for_state(svc, first, "done"));
  ASSERT_TRUE(wait_for_state(svc, second, "done"));

  const auto trace_of = [&](const std::string& id) {
    std::string status;
    EXPECT_EQ(svc.request("GET", "/jobs/" + id, "", status), 200);
    const std::unique_ptr<JsonValue> doc = json_parse(status);
    if (!doc || doc->find("trace_id") == nullptr) return std::string();
    return doc->find("trace_id")->as_string();
  };
  const std::string t1 = trace_of(first);
  const std::string t2 = trace_of(second);
  EXPECT_EQ(t1.substr(0, 2), "0x");
  EXPECT_NE(t1, "0x0000000000000000");
  EXPECT_NE(t2, "0x0000000000000000");
  EXPECT_NE(t1, t2);
}

TEST(JobApi, MetricsCarryRedHistogramsWithExemplars) {
  JobService svc;
  std::string body;
  ASSERT_EQ(svc.request("POST", "/jobs", quick_body(), body), 202);
  ASSERT_TRUE(wait_for_state(svc, id_of(body), "done"));

  ASSERT_EQ(svc.request("GET", "/metrics", "", body), 200);
  EXPECT_NE(body.find("tsmo_http_requests_total{route=\"/jobs\","
                      "method=\"POST\",code=\"202\"} 1"),
            std::string::npos)
      << body.substr(0, 600);
  EXPECT_NE(body.find("tsmo_http_request_duration_seconds_bucket{"
                      "route=\"/jobs\",method=\"POST\""),
            std::string::npos);
  EXPECT_NE(body.find("tsmo_http_request_duration_seconds_count{"
                      "route=\"/jobs\",method=\"POST\"} 1"),
            std::string::npos);
  // The POST carried the job's trace id, so its slowest bucket must carry
  // an exemplar naming trace and job.
  EXPECT_NE(body.find(" # {trace_id=\"0x"), std::string::npos)
      << body.substr(0, 600);
  EXPECT_NE(body.find(",job=\"job-1\"}"), std::string::npos);
  // Cumulative histogram closes with +Inf.
  EXPECT_NE(body.find("le=\"+Inf\""), std::string::npos);
}

TEST(JobApi, HealthzReportsTheJobPlane) {
  obs::JobManagerConfig config;
  config.queue_capacity = 9;
  config.executors = 2;
  JobService svc(config);
  std::string body;
  ASSERT_EQ(svc.request("POST", "/jobs", quick_body(), body), 202);
  ASSERT_TRUE(wait_for_state(svc, id_of(body), "done"));

  ASSERT_EQ(svc.request("GET", "/healthz", "", body), 200);
  const std::unique_ptr<JsonValue> doc = json_parse(body);
  ASSERT_NE(doc, nullptr) << body;
  const JsonValue* jobs = doc->find("jobs");
  ASSERT_NE(jobs, nullptr) << body;
  EXPECT_EQ(jobs->find("queue_depth")->as_int64(), 0);
  EXPECT_EQ(jobs->find("queue_capacity")->as_int64(), 9);
  EXPECT_EQ(jobs->find("executors")->as_int64(), 2);
  EXPECT_EQ(jobs->find("running")->as_int64(), 0);
  EXPECT_EQ(jobs->find("accepted")->as_int64(), 1);
  EXPECT_EQ(jobs->find("done")->as_int64(), 1);
}

/// Seq jobs feed the recorder like every other engine: the runner reports
/// a first-front latency, so seq jobs at the default 2000 ms target are
/// not first-front SLO misses.
TEST(JobApi, SeqJobsReportTheirFirstFront) {
  const obs::JobOutcome direct = run_job_body(quick_body(), {});
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_GT(direct.first_front_ns, 0u);

  JobService svc;
  std::string body;
  for (std::uint64_t seed : {1, 2, 3}) {
    ASSERT_EQ(svc.request("POST", "/jobs", quick_body(seed), body), 202);
    ASSERT_TRUE(wait_for_state(svc, id_of(body), "done"));
  }
  const obs::JobManager::Stats stats = svc.jobs.stats();
  EXPECT_EQ(stats.first_front_total, 3u);
  EXPECT_EQ(stats.first_front_slow, 0u);
}

/// A running seq job serves its anytime front on GET /jobs/<id>.
TEST(JobApi, RunningSeqJobServesALiveFront) {
  JobService svc;
  std::string body;
  ASSERT_EQ(svc.request("POST", "/jobs", long_body(), body), 202);
  const std::string id = id_of(body);
  ASSERT_TRUE(wait_for_state(svc, id, "running"));

  std::string engine;
  std::int64_t front_size = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (front_size == 0 && std::chrono::steady_clock::now() < deadline) {
    ASSERT_EQ(svc.request("GET", "/jobs/" + id, "", body), 200);
    const std::unique_ptr<JsonValue> doc = json_parse(body);
    ASSERT_NE(doc, nullptr) << body;
    if (const JsonValue* live = doc->find("live")) {
      engine = live->find("engine")->as_string();
      front_size = live->find("front_size")->as_int64();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(engine, "sequential");
  EXPECT_GT(front_size, 0);

  ASSERT_EQ(svc.request("DELETE", "/jobs/" + id, "", body), 202);
  ASSERT_TRUE(wait_for_state(svc, id, "cancelled"));
}

}  // namespace
}  // namespace tsmo
