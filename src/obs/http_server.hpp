#pragma once

// Minimal embedded HTTP/1.1 server (DESIGN.md §10, §12).  POSIX sockets
// only — no third-party dependency.  One acceptor thread polls the
// listening socket (~200 ms tick so stop() is prompt) and hands accepted
// fds to a small fixed pool of handler threads over a bounded internal
// queue; when the queue is full the connection is refused with 503 from
// the acceptor itself so a scrape storm cannot pile up unbounded work.
//
// Originally read-only (GET exact-match routes); the job plane extended
// it with method-aware exact and prefix routes, request bodies (read up
// to Limits::max_body_bytes, 413 beyond), and per-read timeouts (408 when
// a slow client stalls mid-request, so it cannot wedge a handler thread).
// Responses are `Connection: close` — every request gets a fresh
// connection, which keeps the server stateless and the handler loop
// trivial.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/telemetry.hpp"  // kHistogramBuckets (RED latency buckets)

namespace tsmo::obs {

/// A parsed request: method + path with the query string split off, plus
/// the body (empty unless the client sent Content-Length).
struct HttpRequest {
  std::string method;
  std::string path;
  std::string query;
  std::string body;
};

/// A response under construction; handlers fill status/body/content_type
/// and may append extra headers (e.g. Retry-After).
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;
  /// Exemplar correlation (DESIGN.md §13): handlers that know which request
  /// they served stamp the causal trace id and a short label (the job id);
  /// the slowest-bucket samples of the per-route latency histograms on
  /// /metrics carry them as exemplars.
  std::uint64_t trace_id = 0;
  std::string trace_label;
};

/// RED (rate/errors/duration) accounting for one (route pattern, method)
/// pair.  The route label is always the *registered* pattern — never the
/// raw request path — so metric label cardinality stays bounded; requests
/// that fail before routing land under "(error)"/"(none)".
struct RouteStat {
  std::string route;
  std::string method;
  std::uint64_t count = 0;
  std::map<int, std::uint64_t> by_status;
  /// log2 latency buckets, same scheme as telemetry histograms (bucket 0 =
  /// exact zeros, bucket b >= 1 = [2^(b-1), 2^b) ns).
  std::array<std::uint64_t, telemetry::kHistogramBuckets> buckets{};
  std::uint64_t sum_ns = 0;
  /// Slowest request seen and its exemplar ids (trace 0 = none captured).
  std::uint64_t max_ns = 0;
  std::uint64_t exemplar_trace = 0;
  std::string exemplar_label;
};

class HttpServer {
 public:
  using Handler = std::function<void(const HttpRequest&, HttpResponse&)>;

  /// Defensive request limits: a client that sends more than
  /// `max_body_bytes` of body is refused with 413 (the connection closes
  /// without reading the excess), and one that stalls longer than
  /// `read_timeout_ms` mid-head or mid-body gets 408 instead of pinning a
  /// handler thread forever.
  struct Limits {
    std::size_t max_head_bytes = 16 * 1024;
    std::size_t max_body_bytes = 1 << 20;
    int read_timeout_ms = 5000;
  };

  /// `port` 0 asks the kernel for an ephemeral port (see port()).
  explicit HttpServer(int port, int handler_threads = 2);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-match GET `path`.  Must be called
  /// before start().
  void route(std::string path, Handler handler);

  /// Registers `handler` for exact-match `method` (e.g. "POST") `path`.
  void route(std::string method, std::string path, Handler handler);

  /// Registers `handler` for every `method` request whose path starts
  /// with `prefix` (e.g. "DELETE" + "/jobs/").  Exact routes win over
  /// prefix routes; among prefix routes the longest match wins.
  void route_prefix(std::string method, std::string prefix, Handler handler);

  /// Replaces the request limits.  Must be called before start().
  void set_limits(const Limits& limits) { limits_ = limits; }
  const Limits& limits() const noexcept { return limits_; }

  /// Binds, listens and launches the acceptor + handler threads.
  /// Returns false (with reason()) if the socket setup fails.
  bool start();

  /// Graceful shutdown: stops accepting, drains queued connections,
  /// joins all threads.  Idempotent; also run by the destructor.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// The bound port (resolves ephemeral port 0 after start()).
  int port() const noexcept { return port_; }

  /// Human-readable failure reason after start() returns false.
  const std::string& reason() const noexcept { return reason_; }

  /// Total requests answered (any status); exposed for tests.
  std::uint64_t requests_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

  /// Copy of the per-route RED stats (one entry per route/method pair that
  /// has served at least one request).
  std::vector<RouteStat> route_stats() const;

 private:
  struct Route {
    std::string method;
    std::string path;
    bool prefix = false;
    Handler handler;
  };

  void accept_loop();
  void handler_loop();
  void serve_connection(int fd);
  bool enqueue(int fd);
  /// Resolves and runs the handler; `route_label` reports the matched
  /// registered pattern ("(none)" when no path matched) for RED accounting.
  void dispatch(const HttpRequest& req, HttpResponse& res,
                std::string& route_label) const;
  void observe(const std::string& route, const std::string& method, int status,
               std::uint64_t dur_ns, std::uint64_t trace_id,
               const std::string& label);

  int port_;
  int handler_threads_;
  int listen_fd_ = -1;
  std::string reason_;
  Limits limits_;
  std::vector<Route> routes_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> served_{0};

  mutable std::mutex stats_mu_;
  std::vector<RouteStat> stats_;

  // Bounded fd queue feeding the handler pool.
  static constexpr std::size_t kMaxQueued = 32;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;

  std::thread acceptor_;
  std::vector<std::thread> handlers_;
};

/// Blocking single-request client used by tests and the overhead bench:
/// GETs `path` from 127.0.0.1:`port`, returns the raw response (headers +
/// body) or an empty string on connect/IO failure.
std::string http_get(int port, const std::string& path,
                     int timeout_ms = 2000);

/// General single-request client: sends `method` `path` with `body`
/// (Content-Length included whenever method is not GET/HEAD), returns the
/// raw response or an empty string on connect/IO failure.
std::string http_request(int port, const std::string& method,
                         const std::string& path, const std::string& body,
                         const std::string& content_type =
                             "application/json; charset=utf-8",
                         int timeout_ms = 5000);

/// Splits a raw response from http_get() into (status code, body);
/// returns status 0 when the response is empty/unparseable.
int http_split_response(const std::string& raw, std::string& body);

/// Case-insensitive header lookup in a raw response; empty when absent.
std::string http_header(const std::string& raw, const std::string& name);

}  // namespace tsmo::obs
