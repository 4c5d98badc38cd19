// Operational-plane tests (DESIGN.md §10): Prometheus text exposition
// conformance, the embedded HTTP server and its live endpoints, the
// crash-safe flight recorder (including a forked SIGSEGV postmortem), and
// solver_cli's graceful SIGINT contract.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "moo/anytime.hpp"
#include "obs/buildinfo.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "obs/job_manager.hpp"
#include "obs/obs_server.hpp"
#include "parallel/async_tsmo.hpp"
#include "util/profiler.hpp"
#include "util/progress.hpp"
#include "util/telemetry.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

Instance small_instance() {
  GeneratorConfig config;
  config.num_customers = 40;
  config.spatial = SpatialClass::Random;
  config.horizon = HorizonClass::Short;
  config.seed = 5;
  config.name = "obs_R1_40";
  return generate_instance(config);
}

TsmoParams quick_params(std::uint64_t seed) {
  TsmoParams p;
  p.max_evaluations = 4000;
  p.neighborhood_size = 40;
  p.restart_after = 15;
  p.seed = seed;
  return p;
}

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Finds `"key": ` and parses the number that follows; NaN when absent.
double extract_number(const std::string& body, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t pos = body.find(pat);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(body.c_str() + pos + pat.size(), nullptr);
}

// --- Minimal recursive JSON validator (syntax only) ----------------------

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
}

bool parse_string(const std::string& s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') return false;
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      ++i;
      return true;
    }
  }
  return false;
}

bool parse_value(const std::string& s, std::size_t& i);

bool parse_container(const std::string& s, std::size_t& i, char close,
                     bool object) {
  ++i;  // past the opener
  skip_ws(s, i);
  if (i < s.size() && s[i] == close) {
    ++i;
    return true;
  }
  while (i < s.size()) {
    if (object) {
      skip_ws(s, i);
      if (!parse_string(s, i)) return false;
      skip_ws(s, i);
      if (i >= s.size() || s[i] != ':') return false;
      ++i;
    }
    if (!parse_value(s, i)) return false;
    skip_ws(s, i);
    if (i >= s.size()) return false;
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] == close) {
      ++i;
      return true;
    }
    return false;
  }
  return false;
}

bool parse_value(const std::string& s, std::size_t& i) {
  skip_ws(s, i);
  if (i >= s.size()) return false;
  const char c = s[i];
  if (c == '{') return parse_container(s, i, '}', true);
  if (c == '[') return parse_container(s, i, ']', false);
  if (c == '"') return parse_string(s, i);
  if (s.compare(i, 4, "true") == 0) return i += 4, true;
  if (s.compare(i, 5, "false") == 0) return i += 5, true;
  if (s.compare(i, 4, "null") == 0) return i += 4, true;
  const std::size_t start = i;
  while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                          s[i] == '-' || s[i] == '+' || s[i] == '.' ||
                          s[i] == 'e' || s[i] == 'E')) {
    ++i;
  }
  return i > start;
}

bool json_valid(const std::string& s) {
  std::size_t i = 0;
  if (!parse_value(s, i)) return false;
  skip_ws(s, i);
  return i == s.size();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Raw one-shot request against 127.0.0.1:`port` (for non-GET coverage
/// that the http_get() helper deliberately cannot produce).
std::string send_raw(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

// ==========================================================================
// Prometheus exposition conformance
// ==========================================================================

TEST(ExpositionTest, SanitizeMetricName) {
  EXPECT_EQ(obs::sanitize_metric_name("a.b-c"), "a_b_c");
  EXPECT_EQ(obs::sanitize_metric_name("moves.applied"), "moves_applied");
  EXPECT_EQ(obs::sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(obs::sanitize_metric_name(""), "_");
  EXPECT_EQ(obs::sanitize_metric_name("ok_name:x"), "ok_name:x");
  EXPECT_EQ(obs::sanitize_metric_name("sp ace"), "sp_ace");
}

TEST(ExpositionTest, EscapeLabelValue) {
  EXPECT_EQ(obs::escape_label_value("plain"), "plain");
  EXPECT_EQ(obs::escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::escape_label_value("two\nlines"), "two\\nlines");
}

TEST(ExpositionTest, CounterGetsTotalSuffixAndTypeLine) {
  telemetry::Snapshot snap;
  snap.counters.push_back({"moves.applied", 42});
  std::ostringstream os;
  obs::write_prometheus(os, snap);
  const std::string out = os.str();
  EXPECT_NE(out.find("# HELP tsmo_moves_applied_total "), std::string::npos);
  EXPECT_NE(out.find("# TYPE tsmo_moves_applied_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("tsmo_moves_applied_total 42\n"), std::string::npos);
}

TEST(ExpositionTest, WorkerAndChannelGaugesGetLabels) {
  telemetry::Snapshot snap;
  snap.gauges.push_back({"worker.3.busy_ns", 123});
  snap.gauges.push_back({"worker.0.busy_ns", 7});
  snap.gauges.push_back({"channel.best->workers.depth", 5});
  snap.gauges.push_back({"plain.gauge", 9});
  std::ostringstream os;
  obs::write_prometheus(os, snap);
  const std::string out = os.str();
  EXPECT_NE(out.find("tsmo_worker_busy_ns{worker=\"3\"} 123\n"),
            std::string::npos);
  EXPECT_NE(out.find("tsmo_worker_busy_ns{worker=\"0\"} 7\n"),
            std::string::npos);
  // One family, one HELP/TYPE pair, two labelled samples.
  EXPECT_EQ(count_occurrences(out, "# TYPE tsmo_worker_busy_ns gauge"), 1u);
  EXPECT_EQ(count_occurrences(out, "# HELP tsmo_worker_busy_ns "), 1u);
  EXPECT_NE(out.find("tsmo_channel_depth{channel=\"best->workers\"} 5\n"),
            std::string::npos);
  EXPECT_NE(out.find("tsmo_plain_gauge 9\n"), std::string::npos);
}

TEST(ExpositionTest, LabelValuesAreEscapedInOutput) {
  telemetry::Snapshot snap;
  snap.gauges.push_back({"channel.we\"ird\\lab.depth", 1});
  std::ostringstream os;
  obs::write_prometheus(os, snap);
  EXPECT_NE(os.str().find("{channel=\"we\\\"ird\\\\lab\"} 1\n"),
            std::string::npos);
}

TEST(ExpositionTest, HistogramBucketsAreCumulativeWithTerminalInf) {
  telemetry::HistogramSnap h;
  h.name = "phase.step_ns";
  h.buckets[0] = 2;  // exact zeros
  h.buckets[3] = 5;
  h.buckets[5] = 1;
  h.count = 8;
  h.sum_ns = 999;
  telemetry::Snapshot snap;
  snap.histograms.push_back(h);
  std::ostringstream os;
  obs::write_prometheus(os, snap);
  const std::string out = os.str();

  EXPECT_EQ(count_occurrences(out, "# TYPE tsmo_phase_step_seconds histogram"),
            1u);
  EXPECT_EQ(count_occurrences(out, "# HELP tsmo_phase_step_seconds "), 1u);

  // Walk the bucket lines in order: `le` values and cumulative counts must
  // both be monotone non-decreasing, ending in the +Inf bucket == count.
  std::istringstream lines(out);
  std::string line;
  std::vector<double> les;
  std::vector<std::uint64_t> cums;
  bool saw_inf = false;
  const std::string bucket_prefix = "tsmo_phase_step_seconds_bucket{le=\"";
  while (std::getline(lines, line)) {
    if (line.compare(0, bucket_prefix.size(), bucket_prefix) != 0) continue;
    const std::size_t le_start = bucket_prefix.size();
    const std::size_t le_end = line.find('"', le_start);
    ASSERT_NE(le_end, std::string::npos);
    const std::string le = line.substr(le_start, le_end - le_start);
    const std::uint64_t cum = std::strtoull(
        line.c_str() + line.find('}') + 1, nullptr, 10);
    if (le == "+Inf") {
      saw_inf = true;
      EXPECT_EQ(cum, h.count) << "+Inf bucket must equal _count";
    } else {
      EXPECT_FALSE(saw_inf) << "+Inf must be the last bucket";
      les.push_back(std::strtod(le.c_str(), nullptr));
    }
    cums.push_back(cum);
  }
  EXPECT_TRUE(saw_inf);
  ASSERT_GE(cums.size(), 3u);
  for (std::size_t i = 1; i < cums.size(); ++i) {
    EXPECT_GE(cums[i], cums[i - 1]) << "buckets must be cumulative";
  }
  for (std::size_t i = 1; i < les.size(); ++i) {
    EXPECT_GT(les[i], les[i - 1]) << "le bounds must increase";
  }
  EXPECT_EQ(les.front(), 0.0) << "bucket 0 holds exact zeros";
  EXPECT_NE(out.find("tsmo_phase_step_seconds_count 8\n"), std::string::npos);
  // 999 ns rendered in seconds.
  EXPECT_NE(out.find("tsmo_phase_step_seconds_sum 9.99e-07\n"),
            std::string::npos);
}

TEST(ExpositionTest, HelpTextEscapesNewlines) {
  // HELP text derives from the metric name; a name with a newline must not
  // produce a raw newline inside the HELP line.
  telemetry::Snapshot snap;
  snap.counters.push_back({"bad\nname", 1});
  std::ostringstream os;
  obs::write_prometheus(os, snap);
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, 7, "# HELP ") == 0) {
      EXPECT_EQ(line.find('\n'), std::string::npos);
      EXPECT_NE(line.find("\\n"), std::string::npos);
    }
  }
}

// ==========================================================================
// HTTP server + live endpoints
// ==========================================================================

TEST(HttpObs, ServesIndexBuildinfoAnd404OnEphemeralPort) {
  obs::ObsServer server;  // port 0 = ephemeral
  ASSERT_TRUE(server.start()) << server.reason();
  ASSERT_GT(server.port(), 0);

  std::string body;
  EXPECT_EQ(obs::http_split_response(obs::http_get(server.port(), "/"), body),
            200);
  EXPECT_NE(body.find("/metrics"), std::string::npos);

  EXPECT_EQ(obs::http_split_response(
                obs::http_get(server.port(), "/buildinfo"), body),
            200);
  EXPECT_TRUE(json_valid(body)) << body;
  EXPECT_NE(body.find("git_sha"), std::string::npos);
  EXPECT_NE(body.find(obs::build_info().compiler), std::string::npos);

  EXPECT_EQ(obs::http_split_response(obs::http_get(server.port(), "/nope"),
                                     body),
            404);

  server.stop();
  EXPECT_FALSE(server.running());
}

/// The paths the `/` index names: each line that starts with '/' once
/// its indent is skipped, cut at the first space or '?'.
std::vector<std::string> index_paths(const std::string& index) {
  std::vector<std::string> paths;
  std::istringstream lines(index);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos || line[start] != '/') continue;
    const std::size_t end = line.find_first_of(" ?", start);
    paths.push_back(line.substr(start, end - start));  // npos: to the end
  }
  return paths;
}

TEST(HttpObs, IndexNamesOnlyServedRoutes) {
  // Profiler off, so /debug/profile answers 409 at once instead of
  // sampling a window.
  ASSERT_FALSE(prof::enabled());
  obs::JobManager jobs(obs::JobManagerConfig{},
                       [](const std::string&, const obs::JobContext&) {
                         return obs::JobOutcome{};
                       });
  for (const bool with_jobs : {false, true}) {
    obs::ObsServer server;
    if (with_jobs) server.attach_jobs(&jobs);
    ASSERT_TRUE(server.start()) << server.reason();
    std::string index;
    ASSERT_EQ(
        obs::http_split_response(obs::http_get(server.port(), "/"), index),
        200);
    const std::vector<std::string> paths = index_paths(index);
    EXPECT_GE(paths.size(), 5u) << index;
    EXPECT_EQ(std::count(paths.begin(), paths.end(), "/jobs"),
              with_jobs ? 1 : 0)
        << index;
    for (const std::string& path : paths) {
      std::string body;
      EXPECT_NE(obs::http_split_response(obs::http_get(server.port(), path),
                                         body),
                404)
          << path;
    }
    server.stop();
  }
}

TEST(HttpObs, RejectsNonGetAndMalformedRequests) {
  obs::ObsServer server;
  ASSERT_TRUE(server.start()) << server.reason();

  const std::string post = send_raw(
      server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos) << post;

  const std::string garbage = send_raw(server.port(), "garbage\r\n\r\n");
  EXPECT_NE(garbage.find("400"), std::string::npos) << garbage;

  server.stop();
}

TEST(HttpObs, MetricsEndpointExposesRegistryAndSelfMetrics) {
  const bool was = telemetry::set_enabled(true);
  telemetry::Registry& reg = telemetry::Registry::instance();
  reg.reset();
  reg.add(reg.counter("obs_test.hits"), 3);

  obs::ObsServer server;
  ASSERT_TRUE(server.start()) << server.reason();
  std::string body;
  EXPECT_EQ(obs::http_split_response(
                obs::http_get(server.port(), "/metrics"), body),
            200);
#if TSMO_TELEMETRY_ENABLED
  // The registry exposition is compiled out with TSMO_TELEMETRY=OFF; the
  // obs self-metrics below are served unconditionally.
  EXPECT_NE(body.find("tsmo_obs_test_hits_total 3\n"), std::string::npos);
#endif
  EXPECT_NE(body.find("# TYPE tsmo_obs_scrapes_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("tsmo_obs_flight_events_total"), std::string::npos);
  EXPECT_EQ(server.scrapes(), 1u);
  server.stop();

  reg.reset();
  telemetry::set_enabled(was);
}

TEST(HttpObs, StatusReportsIdleWithoutRecorder) {
  obs::ObsServer server;
  ASSERT_TRUE(server.start()) << server.reason();
  std::string body;
  EXPECT_EQ(obs::http_split_response(
                obs::http_get(server.port(), "/status"), body),
            200);
  EXPECT_TRUE(json_valid(body)) << body;
  EXPECT_NE(body.find("\"engine\": \"idle\""), std::string::npos);
  EXPECT_NE(body.find("\"attached\": false"), std::string::npos);
  server.stop();
}

TEST(HttpObs, StatusMatchesConvergenceRecorder) {
  const Instance inst = small_instance();
  ConvergenceConfig cc;
  cc.reference = convergence_reference(inst);
  cc.sample_every_iters = 5;
  ConvergenceRecorder rec(cc);

  RunContext ctx;
  ctx.recorder = &rec;
  const RunResult result = AsyncTsmo(inst, quick_params(7), 4, {}, ctx).run();
  ASSERT_FALSE(result.front.empty());

  obs::ObsServer server;
  ASSERT_TRUE(server.start()) << server.reason();
  server.set_recorder(&rec);

  std::string body;
  ASSERT_EQ(obs::http_split_response(
                obs::http_get(server.port(), "/status"), body),
            200);
  EXPECT_TRUE(json_valid(body)) << body;
  EXPECT_NE(body.find("\"engine\": \"async\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"attached\": true"), std::string::npos);

  const ConvergenceRecorder::LiveStatus live = rec.live_status();
  const double hv = extract_number(body, "hv_global");
  ASSERT_FALSE(std::isnan(hv));
  EXPECT_NEAR(hv, live.hv_global, 1e-6 * std::abs(live.hv_global) + 1e-9);
  EXPECT_EQ(static_cast<std::size_t>(extract_number(body, "front_size")),
            live.front.size());
  EXPECT_EQ(count_occurrences(body, "\"distance\": "), live.front.size());

  ASSERT_EQ(obs::http_split_response(
                obs::http_get(server.port(), "/healthz"), body),
            200);
  EXPECT_TRUE(json_valid(body)) << body;
  EXPECT_NE(body.find("\"status\": "), std::string::npos);
  EXPECT_NE(body.find("\"heartbeats\": "), std::string::npos);

  server.set_recorder(nullptr);
  server.stop();
}

TEST(HttpObs, ConcurrentScrapesDuringLiveRunStayValid) {
  const bool was = telemetry::set_enabled(true);
  telemetry::Registry::instance().reset();

  const Instance inst = small_instance();
  ConvergenceConfig cc;
  cc.reference = convergence_reference(inst);
  cc.sample_every_iters = 5;
  ConvergenceRecorder rec(cc);

  obs::ObsServer server;
  ASSERT_TRUE(server.start()) << server.reason();
  server.set_recorder(&rec);

  std::atomic<bool> done{false};
  std::atomic<int> ok_scrapes{0};
  std::atomic<int> bad_scrapes{0};
  std::thread scraper([&] {
    // Keep scraping until the run finished AND we saw a few good scrapes,
    // so the assertion below cannot race a very fast run.
    while (!done.load(std::memory_order_acquire) ||
           ok_scrapes.load(std::memory_order_relaxed) < 5) {
      std::string body;
      const int ms = obs::http_split_response(
          obs::http_get(server.port(), "/metrics"), body);
      const bool metrics_ok =
          ms == 200 && body.find("tsmo_obs_scrapes_total") != std::string::npos;
      const int ss = obs::http_split_response(
          obs::http_get(server.port(), "/status"), body);
      const bool status_ok = ss == 200 && json_valid(body);
      if (metrics_ok && status_ok) {
        ok_scrapes.fetch_add(1, std::memory_order_relaxed);
      } else {
        bad_scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  TsmoParams params = quick_params(11);
  params.max_evaluations = 20000;
  params.telemetry = true;
  RunContext ctx;
  ctx.recorder = &rec;
  const RunResult result = AsyncTsmo(inst, params, 4, {}, ctx).run();
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_FALSE(result.front.empty());
  EXPECT_GE(ok_scrapes.load(), 5);
  EXPECT_EQ(bad_scrapes.load(), 0);

  server.set_recorder(nullptr);
  server.stop();
  telemetry::Registry::instance().reset();
  telemetry::set_enabled(was);
}

// ==========================================================================
// Defensive request limits (HttpServer::Limits): 413 / 408
// ==========================================================================

/// Bare HttpServer with one echo route and deliberately tiny limits.
struct TinyLimitServer {
  obs::HttpServer server{0, 1};
  TinyLimitServer() {
    obs::HttpServer::Limits limits;
    limits.max_head_bytes = 256;
    limits.max_body_bytes = 64;
    limits.read_timeout_ms = 150;
    server.set_limits(limits);
    server.route("POST", "/echo",
                 [](const obs::HttpRequest& req, obs::HttpResponse& res) {
                   res.body = req.body;
                 });
  }
  ~TinyLimitServer() { server.stop(); }
};

TEST(HttpLimits, BodyWithinLimitRoundTripsUnderTightLimits) {
  TinyLimitServer tiny;
  ASSERT_TRUE(tiny.server.start()) << tiny.server.reason();
  std::string body;
  EXPECT_EQ(obs::http_split_response(
                obs::http_request(tiny.server.port(), "POST", "/echo",
                                  "hello limits"),
            body),
            200);
  EXPECT_EQ(body, "hello limits");
}

TEST(HttpLimits, OversizedDeclaredBodyGets413) {
  TinyLimitServer tiny;
  ASSERT_TRUE(tiny.server.start()) << tiny.server.reason();
  // 200 declared bytes against a 64-byte cap: refused from the declared
  // Content-Length alone, before the body is read.
  const std::string payload(200, 'x');
  const std::string raw = send_raw(
      tiny.server.port(),
      "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: " +
          std::to_string(payload.size()) + "\r\n\r\n" + payload);
  EXPECT_NE(raw.find("413"), std::string::npos) << raw;
  EXPECT_NE(raw.find("request body exceeds 64 bytes"), std::string::npos)
      << raw;
}

TEST(HttpLimits, OversizedRequestHeadGets413) {
  TinyLimitServer tiny;
  ASSERT_TRUE(tiny.server.start()) << tiny.server.reason();
  // A header block past max_head_bytes with no terminating blank line.
  std::string head = "GET /echo HTTP/1.1\r\n";
  while (head.size() <= 300) head += "X-Filler: aaaaaaaaaaaaaaaa\r\n";
  const std::string raw = send_raw(tiny.server.port(), head);
  EXPECT_NE(raw.find("413"), std::string::npos) << raw;
  EXPECT_NE(raw.find("request head too large"), std::string::npos) << raw;
}

TEST(HttpLimits, StalledClientMidHeadGets408) {
  TinyLimitServer tiny;
  ASSERT_TRUE(tiny.server.start()) << tiny.server.reason();
  // An unterminated head: the client "stalls" and just waits.  The
  // 150 ms read timeout must answer 408 instead of pinning the (single)
  // handler thread; send_raw then collects the response until close.
  const std::string raw =
      send_raw(tiny.server.port(), "GET /echo HTTP/1.1\r\nHost: x\r\n");
  EXPECT_NE(raw.find("408"), std::string::npos) << raw;
  // The handler thread is free again: a normal request still succeeds.
  std::string body;
  EXPECT_EQ(obs::http_split_response(
                obs::http_request(tiny.server.port(), "POST", "/echo", "ok"),
                body),
            200);
  EXPECT_EQ(body, "ok");
}

TEST(HttpLimits, StalledClientMidBodyGets408) {
  TinyLimitServer tiny;
  ASSERT_TRUE(tiny.server.start()) << tiny.server.reason();
  // Complete head declaring 32 body bytes, but only 4 ever sent.
  const std::string raw = send_raw(
      tiny.server.port(),
      "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 32\r\n\r\nabcd");
  EXPECT_NE(raw.find("408"), std::string::npos) << raw;
  EXPECT_NE(raw.find("timed out reading request body"), std::string::npos)
      << raw;
}

// ==========================================================================
// HEAD support + Cache-Control (RFC 9110 §9.3.2)
// ==========================================================================

/// Splits a raw response into (head, body) at the blank line.
void split_raw(const std::string& raw, std::string& head, std::string& body) {
  const std::size_t sep = raw.find("\r\n\r\n");
  if (sep == std::string::npos) {
    head = raw;
    body.clear();
  } else {
    head = raw.substr(0, sep);
    body = raw.substr(sep + 4);
  }
}

TEST(HttpHead, HeadAnswersGetHeadersWithRealContentLengthAndNoBody) {
  obs::ObsServer server;
  ASSERT_TRUE(server.start()) << server.reason();

  for (const char* path : {"/", "/buildinfo", "/metrics"}) {
    const std::string get_raw = obs::http_get(server.port(), path);
    std::string get_body;
    ASSERT_EQ(obs::http_split_response(get_raw, get_body), 200) << path;
    ASSERT_FALSE(get_body.empty()) << path;

    const std::string raw = send_raw(
        server.port(), std::string("HEAD ") + path +
                           " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                           "\r\n");
    std::string head, body;
    split_raw(raw, head, body);
    EXPECT_NE(head.find("HTTP/1.1 200"), std::string::npos) << raw;
    // Content-Length advertises the GET body size, but nothing is sent.
    const std::string len = obs::http_header(raw, "Content-Length");
    EXPECT_GT(std::strtoul(len.c_str(), nullptr, 10), 0u) << path;
    EXPECT_TRUE(body.empty()) << path << " leaked a body: " << body;
    EXPECT_EQ(obs::http_header(raw, "Content-Type"),
              obs::http_header(get_raw, "Content-Type"))
        << path;
  }
  // /metrics specifically: HEAD's declared length matches a GET taken
  // with no traffic in between... too racy to pin exactly, but an unknown
  // path must still 404 under HEAD.
  const std::string missing = send_raw(
      server.port(), "HEAD /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
  server.stop();
}

TEST(HttpHead, DynamicEndpointsAreNoStore) {
  obs::ObsServer server;
  ASSERT_TRUE(server.start()) << server.reason();
  for (const char* path : {"/", "/metrics", "/healthz", "/status"}) {
    const std::string raw = obs::http_get(server.port(), path);
    EXPECT_EQ(obs::http_header(raw, "Cache-Control"), "no-store") << path;
  }
  server.stop();
}

// ==========================================================================
// Histogram exposition conformance under concurrent writers
// ==========================================================================

/// Parses every histogram in an exposition body and checks the format
/// invariants: cumulative buckets monotone in le-order, and the +Inf
/// bucket exactly equal to the _count sample of the same (family, labels).
/// Returns the number of histogram series checked; failures EXPECT inline.
std::size_t check_histogram_invariants(const std::string& body) {
  struct SeriesState {
    std::uint64_t last_cum = 0;
    std::uint64_t inf = 0;
    bool have_inf = false;
  };
  std::map<std::string, SeriesState> series;   // keyed family + labels-sans-le
  std::map<std::string, std::uint64_t> counts; // keyed family + labels

  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // Strip exemplars (" # {...} value") before parsing the sample value.
    const std::size_t ex = line.find(" # ");
    if (ex != std::string::npos) line.resize(ex);
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    const std::string name_labels = line.substr(0, sp);
    const std::string value_text = line.substr(sp + 1);

    const std::size_t bucket_pos = name_labels.find("_bucket{");
    if (bucket_pos != std::string::npos) {
      const std::string family = name_labels.substr(0, bucket_pos);
      const std::size_t open = name_labels.find('{', bucket_pos);
      const std::size_t close = name_labels.rfind('}');
      if (close == std::string::npos || close <= open) continue;
      std::string labels = name_labels.substr(open + 1, close - open - 1);
      // Cut the le="..." pair out (it is always present on buckets).
      const std::size_t le = labels.find("le=\"");
      if (le == std::string::npos) continue;
      const std::size_t le_end = labels.find('"', le + 4);
      std::string le_value = labels.substr(le + 4, le_end - le - 4);
      std::string rest = labels.substr(0, le);
      if (le_end + 1 < labels.size()) rest += labels.substr(le_end + 1);
      while (!rest.empty() && (rest.back() == ',' || rest.back() == ' ')) {
        rest.pop_back();
      }
      const std::string key = family + "{" + rest + "}";
      SeriesState& st = series[key];
      const std::uint64_t cum = std::strtoull(value_text.c_str(), nullptr, 10);
      EXPECT_GE(cum, st.last_cum)
          << key << " le=" << le_value << " went backwards";
      st.last_cum = cum;
      if (le_value == "+Inf") {
        st.inf = cum;
        st.have_inf = true;
      }
      continue;
    }
    const std::size_t count_pos = name_labels.find("_count");
    if (count_pos != std::string::npos &&
        (count_pos + 6 == name_labels.size() ||
         name_labels[count_pos + 6] == '{')) {
      const std::string family = name_labels.substr(0, count_pos);
      std::string labels;
      const std::size_t open = name_labels.find('{', count_pos);
      if (open != std::string::npos) {
        const std::size_t close = name_labels.rfind('}');
        labels = name_labels.substr(open + 1, close - open - 1);
      }
      counts[family + "{" + labels + "}"] =
          std::strtoull(value_text.c_str(), nullptr, 10);
    }
  }

  std::size_t checked = 0;
  for (const auto& [key, st] : series) {
    auto it = counts.find(key);
    if (it == counts.end() || !st.have_inf) continue;
    EXPECT_EQ(st.inf, it->second) << key << ": +Inf bucket != _count";
    ++checked;
  }
  return checked;
}

TEST(ExpositionConformance, HistogramsStayConsistentUnderConcurrentWriters) {
  const bool was = telemetry::set_enabled(true);
  telemetry::Registry& reg = telemetry::Registry::instance();
  reg.reset();
  const telemetry::HistogramId hist =
      reg.histogram("obs_conformance.latency_ns");

  obs::ObsServer server;
  ASSERT_TRUE(server.start()) << server.reason();

  // 8 writers hammer the histogram while the main thread scrapes; every
  // scrape must satisfy the exposition invariants even though the
  // snapshot races the writers (the +Inf/_count clamp in exposition.cpp).
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 8; ++w) {
    writers.emplace_back([&, w] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull * (w + 1);
      while (!stop.load(std::memory_order_acquire)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        reg.record_ns(hist, x % 5'000'000);
      }
    });
  }

  std::size_t scraped = 0;
  for (int i = 0; i < 25; ++i) {
    std::string body;
    ASSERT_EQ(obs::http_split_response(
                  obs::http_get(server.port(), "/metrics"), body),
              200);
    scraped += check_histogram_invariants(body);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();
  server.stop();
#if TSMO_TELEMETRY_ENABLED
  // Each scrape carries at least the registry histogram plus the
  // per-route RED histograms.
  EXPECT_GE(scraped, 25u);
#endif
  reg.reset();
  telemetry::set_enabled(was);
}

TEST(HttpObs, BuildinfoAndHealthzCarryStartTimeAndUptime) {
  obs::ObsServer server;
  ASSERT_TRUE(server.start()) << server.reason();
  std::string body;
  ASSERT_EQ(obs::http_split_response(
                obs::http_get(server.port(), "/buildinfo"), body),
            200);
  const double start_ms = extract_number(body, "start_time_unix_ms");
  const double uptime = extract_number(body, "uptime_s");
  EXPECT_GT(start_ms, 1.0e12);  // a plausible unix-millis timestamp
  EXPECT_GE(uptime, 0.0);
  EXPECT_LT(uptime, 3600.0);  // a test process is young
  ASSERT_EQ(obs::http_split_response(
                obs::http_get(server.port(), "/healthz"), body),
            200);
  EXPECT_NEAR(extract_number(body, "start_time_unix_ms"), start_ms, 1.0);
  EXPECT_GE(extract_number(body, "uptime_s"), uptime);
  server.stop();
}

// ==========================================================================
// Flight recorder
// ==========================================================================

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_ = obs::FlightRecorder::set_enabled(true);
    obs::FlightRecorder::instance().reset();
  }
  void TearDown() override {
    obs::FlightRecorder::instance().set_heartbeat_board(nullptr);
    obs::FlightRecorder::instance().configure_capacity(
        obs::FlightRecorder::kDefaultCapacity);
    obs::FlightRecorder::instance().reset();
    obs::FlightRecorder::set_enabled(was_);
  }
  bool was_ = false;
};

TEST_F(FlightRecorderTest, RingKeepsLastCapacityEventsOldestFirst) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  const int cap = rec.capacity();
  ASSERT_EQ(cap, obs::FlightRecorder::kDefaultCapacity);
  const int total = cap + 44;
  for (int i = 0; i < total; ++i) {
    rec.record(obs::FlightKind::kNote, "wrap", i);
  }
  EXPECT_EQ(rec.recorded(), static_cast<std::uint64_t>(total));
  const std::vector<obs::FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(cap));
  EXPECT_EQ(events.front().seq, static_cast<std::uint64_t>(total - cap + 1));
  EXPECT_EQ(events.back().seq, static_cast<std::uint64_t>(total));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  // Payload survives the ring: `a` carried the loop index (seq - 1).
  for (const obs::FlightEvent& ev : events) {
    EXPECT_EQ(static_cast<std::uint64_t>(ev.a) + 1, ev.seq);
    EXPECT_STREQ(ev.tag, "wrap");
  }
}

TEST_F(FlightRecorderTest, CapacityIsConfigurableAndBoundsChecked) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  // Out-of-range requests clamp to [16, 65536] instead of being applied.
  EXPECT_EQ(rec.configure_capacity(1), 16);
  EXPECT_EQ(rec.capacity(), 16);
  EXPECT_EQ(rec.configure_capacity(1 << 24), 65536);
  EXPECT_EQ(rec.capacity(), 65536);

  // A reconfigured ring keeps exactly the new capacity of events.
  ASSERT_EQ(rec.configure_capacity(32), 32);
  for (int i = 0; i < 100; ++i) {
    rec.record(obs::FlightKind::kNote, "cap", i);
  }
  const std::vector<obs::FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 32u);
  EXPECT_EQ(events.front().seq, 69u);
  EXPECT_EQ(events.back().seq, 100u);

  // Reconfiguring (even to the same capacity) resets the ring and counter.
  EXPECT_EQ(rec.configure_capacity(32), 32);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST_F(FlightRecorderTest, EventsCarryTheTraceId) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  obs::flight_archive_insert(3, 2, 17, 0xabcdef0123456789ULL);
  rec.record(obs::FlightKind::kNote, "untraced");
  const std::vector<obs::FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace, 0xabcdef0123456789ULL);
  EXPECT_EQ(events[1].trace, 0u);
}

TEST_F(FlightRecorderTest, DisabledHooksRecordNothing) {
  obs::FlightRecorder::set_enabled(false);
  obs::flight_engine_start("async", 4, 3);
  obs::flight_archive_insert(0, 2, 17);
  obs::flight_stall("searcher 0", 0, 9);
  EXPECT_EQ(obs::FlightRecorder::instance().recorded(), 0u);
}

TEST_F(FlightRecorderTest, LongTagsAreTruncatedNotOverflowed) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  rec.record(obs::FlightKind::kNote,
             "this-tag-is-much-longer-than-sixteen-bytes");
  const std::vector<obs::FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LT(std::strlen(events[0].tag), sizeof(events[0].tag));
  EXPECT_EQ(std::string(events[0].tag).substr(0, 8), "this-tag");
}

TEST_F(FlightRecorderTest, PostmortemIsParseableWithEventsAndHeartbeats) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  rec.note_fingerprint(0xdeadbeefULL);
  obs::flight_engine_start("async", 4, 3);
  for (int i = 0; i < 80; ++i) {
    obs::flight_archive_insert(i % 4, i % 7, i);
  }
  HeartbeatBoard board;
  const int s0 = board.register_slot("searcher 0");
  const int s1 = board.register_slot("worker \"one\"");
  board.beat(s0, 41);
  board.beat(s1, 7);
  rec.set_heartbeat_board(&board);

  const std::string path =
      ::testing::TempDir() + "tsmo_postmortem_healthy.json";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::write_postmortem(path));
  rec.set_heartbeat_board(nullptr);

  const std::string doc = read_file(path);
  ASSERT_FALSE(doc.empty());
  EXPECT_TRUE(json_valid(doc)) << doc.substr(0, 400);
  EXPECT_GE(count_occurrences(doc, "\"seq\": "), 64u);
  EXPECT_NE(doc.find("\"signal\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"trace_fingerprint\": \"0xdeadbeef\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"label\": \"searcher 0\""), std::string::npos);
  // Label escaping stays valid JSON even with quotes in the label.
  EXPECT_NE(doc.find("worker \\\"one\\\""), std::string::npos);
  EXPECT_NE(doc.find("\"progress\": 41"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, SigsegvInWorkerThreadWritesPostmortem) {
  const std::string path = ::testing::TempDir() + "tsmo_postmortem_crash.json";
  std::remove(path.c_str());

  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << std::strerror(errno);
  if (pid == 0) {
    // Child: arm the recorder exactly like `solver_cli --postmortem` does,
    // then crash on a worker thread.  Only _exit on failure paths — the
    // expected way out is the re-raised SIGSEGV.
    obs::FlightRecorder::set_enabled(true);
    obs::FlightRecorder::instance().reset();
    if (!obs::install_crash_handlers(path)) _exit(120);
    obs::flight_engine_start("async", 4, 3);
    for (int i = 0; i < 80; ++i) {
      obs::flight_archive_insert(i % 4, i % 7, i);
    }
    obs::FlightRecorder::instance().note_fingerprint(0x1234abcdULL);
    static HeartbeatBoard board;
    board.beat(board.register_slot("searcher 0"), 41);
    board.beat(board.register_slot("worker 1"), 7);
    obs::FlightRecorder::instance().set_heartbeat_board(&board);
    std::thread crasher([] {
      // A low unmapped (but non-null, aligned) address: faults like the
      // classic null store without tripping UBSan's null-pointer check,
      // which would halt the child before the signal under
      // UBSAN_OPTIONS=halt_on_error=1.  The address goes through a
      // volatile integer so the compiler cannot see the store's target.
      volatile std::uintptr_t address = 8;
      volatile int* target = reinterpret_cast<volatile int*>(address);
      *target = 42;
    });
    crasher.join();
    _exit(121);  // unreachable: the crash handler re-raises SIGSEGV
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid) << std::strerror(errno);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child should die by signal, status="
                                   << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::string doc = read_file(path);
  ASSERT_FALSE(doc.empty()) << "postmortem file missing or empty";
  EXPECT_TRUE(json_valid(doc)) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"signal\": 11"), std::string::npos);
  EXPECT_NE(doc.find("\"signal_name\": \"SIGSEGV\""), std::string::npos);
  EXPECT_GE(count_occurrences(doc, "\"seq\": "), 64u);
  EXPECT_NE(doc.find("\"kind\": \"signal\""), std::string::npos);
  EXPECT_NE(doc.find("\"trace_fingerprint\": \"0x1234abcd\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"label\": \"searcher 0\""), std::string::npos);
  EXPECT_NE(doc.find("\"label\": \"worker 1\""), std::string::npos);
  EXPECT_NE(doc.find("\"git_sha\": "), std::string::npos);
  std::remove(path.c_str());
}

// ==========================================================================
// Graceful stop (solver_cli subprocess)
// ==========================================================================

#ifdef TSMO_SOLVER_CLI

/// Bounded waitpid: SIGKILLs and fails after `timeout_s`.
bool wait_with_timeout(pid_t pid, int* status, int timeout_s) {
  for (int i = 0; i < timeout_s * 20; ++i) {
    const pid_t r = waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0) return false;
    ::usleep(50 * 1000);
  }
  ::kill(pid, SIGKILL);
  waitpid(pid, status, 0);
  return false;
}

/// Reads `fd` until a whole line starting with `prefix` arrives; returns the
/// rest of that line, or "" on EOF or after `timeout_s`.
std::string await_line(int fd, const std::string& prefix, int timeout_s) {
  std::string seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    char chunk[512];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return "";
    seen.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = seen.find(prefix);
    const std::size_t eol =
        at == std::string::npos ? at : seen.find('\n', at);
    if (eol != std::string::npos) {
      return seen.substr(at + prefix.size(), eol - at - prefix.size());
    }
  }
  return "";
}

TEST(GracefulStop, SigintFlushesPartialRunResult) {
  // Two inputs: a plain run, and a one-shot `--serve -1` run whose stdout is
  // a pipe.  The second must announce its ephemeral port while it runs, not
  // leave the line buffered until exit, or no client can find the server.
  for (const bool serve : {false, true}) {
    SCOPED_TRACE(serve ? "--serve -1, stdout on a pipe" : "plain run");
    const std::string json_path =
        ::testing::TempDir() + "tsmo_stop_result.json";
    std::remove(json_path.c_str());
    int out[2] = {-1, -1};
    if (serve) {
      ASSERT_EQ(::pipe(out), 0) << std::strerror(errno);
    }

    // A budget far past what the wait below allows to complete, so the exit
    // can only come from the cooperative stop path.
    std::vector<const char*> args = {
        TSMO_SOLVER_CLI, "--instance",     "R1_1_1",  "--algorithm",
        "async",         "--processors",   "3",       "--evaluations",
        "200000000",     "--neighborhood", "60",      "--json",
        json_path.c_str(), "--quiet"};
    if (serve) args.insert(args.end(), {"--serve", "-1"});
    args.push_back(nullptr);

    const pid_t pid = fork();
    ASSERT_NE(pid, -1) << std::strerror(errno);
    if (pid == 0) {
      if (serve) {
        ::dup2(out[1], STDOUT_FILENO);
        ::close(out[0]);
        ::close(out[1]);
      }
      ::execv(TSMO_SOLVER_CLI, const_cast<char* const*>(args.data()));
      _exit(127);
    }

    if (serve) {
      ::close(out[1]);
      // The stop handlers are installed before the server starts, so once
      // the port is announced a SIGINT takes the cooperative path.
      const std::string rest = await_line(
          out[0], "observability server on http://127.0.0.1:", 10);
      const int port = std::atoi(rest.c_str());
      EXPECT_GT(port, 0) << "port not announced within 10 s of the start";
      if (port > 0) {
        std::string body;
        EXPECT_EQ(
            obs::http_split_response(obs::http_get(port, "/healthz"), body),
            200);
        EXPECT_NE(body.find("\"status\""), std::string::npos) << body;
      }
    } else {
      // Give the CLI time to install its handlers and enter the search loop.
      ::usleep(800 * 1000);
    }
    ASSERT_EQ(::kill(pid, SIGINT), 0) << std::strerror(errno);

    int status = 0;
    const bool exited = wait_with_timeout(pid, &status, 30);
    if (serve) ::close(out[0]);
    ASSERT_TRUE(exited) << "solver_cli did not stop within 30s of SIGINT";
    ASSERT_TRUE(WIFEXITED(status)) << "status=" << status;
    EXPECT_EQ(WEXITSTATUS(status), 0) << "first SIGINT must exit cleanly";

    const std::string doc = read_file(json_path);
    ASSERT_FALSE(doc.empty()) << "partial RunResult JSON was not flushed";
    EXPECT_TRUE(json_valid(doc)) << doc.substr(0, 400);
    EXPECT_NE(doc.find("\"stopped_early\": true"), std::string::npos);
    EXPECT_NE(doc.find("\"build\": "), std::string::npos);
    EXPECT_NE(doc.find("\"git_sha\": "), std::string::npos);
    EXPECT_NE(doc.find("\"front\": "), std::string::npos);
    std::remove(json_path.c_str());
  }
}

#endif  // TSMO_SOLVER_CLI

}  // namespace
}  // namespace tsmo
