#include "obs/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/timer.hpp"

namespace tsmo::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 409:
      return "Conflict";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

/// Writes the whole buffer, retrying on EINTR/short writes.
void write_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

/// `head_only` (HEAD requests) sends status + headers — including the
/// Content-Length the matching GET would have carried — without the body.
void send_response(int fd, const HttpResponse& res, bool head_only = false) {
  std::string out = "HTTP/1.1 " + std::to_string(res.status) + " " +
                    status_text(res.status) + "\r\n";
  out += "Content-Type: " + res.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(res.body.size()) + "\r\n";
  // Every endpoint here is dynamic.
  out += "Cache-Control: no-store\r\n";
  for (const auto& [name, value] : res.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "Connection: close\r\n\r\n";
  if (!head_only) out += res.body;
  write_all(fd, out.data(), out.size());
}

/// Outcome of the incremental request read; maps directly onto the error
/// status the connection is answered with.
enum class ReadStatus {
  kOk,
  kClosed,    // peer vanished mid-request: nothing to answer
  kTimeout,   // 408
  kTooLarge,  // 413
  kMalformed  // 400
};

/// Reads until the end of the request head ("\r\n\r\n") or limits hit.
ReadStatus read_request_head(int fd, const HttpServer::Limits& limits,
                             std::string& head, std::string& overflow) {
  char buf[2048];
  head.clear();
  overflow.clear();
  while (head.size() < limits.max_head_bytes) {
    const std::size_t mark = head.find("\r\n\r\n");
    if (mark != std::string::npos) {
      overflow = head.substr(mark + 4);  // start of the body, if any
      head.resize(mark + 4);
      return ReadStatus::kOk;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, limits.read_timeout_ms);
    if (pr == 0) return ReadStatus::kTimeout;
    if (pr < 0) return ReadStatus::kClosed;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kClosed;
    }
    if (n == 0) return ReadStatus::kClosed;
    head.append(buf, static_cast<std::size_t>(n));
  }
  return ReadStatus::kTooLarge;
}

/// Case-insensitive header value lookup inside a raw request head.
bool find_header(const std::string& head, const std::string& name,
                 std::string& value) {
  std::size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const std::size_t eol = head.find("\r\n", pos + 2);
    if (eol == std::string::npos) break;
    const std::string line = head.substr(pos + 2, eol - pos - 2);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon == name.size()) {
      bool match = true;
      for (std::size_t i = 0; i < name.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(line[i])) !=
            std::tolower(static_cast<unsigned char>(name[i]))) {
          match = false;
          break;
        }
      }
      if (match) {
        std::size_t s = colon + 1;
        while (s < line.size() && line[s] == ' ') ++s;
        value = line.substr(s);
        return true;
      }
    }
    pos = eol;
  }
  return false;
}

/// Reads exactly `want` body bytes (beyond what `body` already holds).
ReadStatus read_request_body(int fd, const HttpServer::Limits& limits,
                             std::size_t want, std::string& body) {
  char buf[4096];
  while (body.size() < want) {
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, limits.read_timeout_ms);
    if (pr == 0) return ReadStatus::kTimeout;
    if (pr < 0) return ReadStatus::kClosed;
    const ssize_t n = ::read(
        fd, buf,
        std::min(sizeof(buf), want - body.size()));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kClosed;
    }
    if (n == 0) return ReadStatus::kClosed;
    body.append(buf, static_cast<std::size_t>(n));
  }
  return ReadStatus::kOk;
}

bool parse_request_line(const std::string& head, HttpRequest& req) {
  const std::size_t eol = head.find("\r\n");
  if (eol == std::string::npos) return false;
  const std::string line = head.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  req.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = target.find('?');
  if (q == std::string::npos) {
    req.path = std::move(target);
    req.query.clear();
  } else {
    req.path = target.substr(0, q);
    req.query = target.substr(q + 1);
  }
  return !req.path.empty() && req.path.front() == '/';
}

}  // namespace

HttpServer::HttpServer(int port, int handler_threads)
    : port_(port),
      handler_threads_(handler_threads < 1 ? 1 : handler_threads) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(std::string path, Handler handler) {
  route("GET", std::move(path), std::move(handler));
}

void HttpServer::route(std::string method, std::string path,
                       Handler handler) {
  routes_.push_back(
      {std::move(method), std::move(path), false, std::move(handler)});
}

void HttpServer::route_prefix(std::string method, std::string prefix,
                              Handler handler) {
  routes_.push_back(
      {std::move(method), std::move(prefix), true, std::move(handler)});
}

bool HttpServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    reason_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    reason_ = "bind port " + std::to_string(port_) + ": " +
              std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 16) != 0) {
    reason_ = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (port_ == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
  handlers_.reserve(static_cast<std::size_t>(handler_threads_));
  for (int i = 0; i < handler_threads_; ++i) {
    handlers_.emplace_back([this] { handler_loop(); });
  }
  return true;
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  queue_cv_.notify_all();
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  // Drain anything the handlers did not get to.
  std::lock_guard<std::mutex> lock(queue_mutex_);
  for (int fd : queue_) ::close(fd);
  queue_.clear();
}

bool HttpServer::enqueue(int fd) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() >= kMaxQueued) return false;
    queue_.push_back(fd);
  }
  queue_cv_.notify_one();
  return true;
}

void HttpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (pr <= 0) continue;  // timeout tick (checks stopping_) or EINTR
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    if (!enqueue(fd)) {
      // Pool saturated: refuse from the acceptor, never block it.
      HttpResponse busy;
      busy.status = 503;
      busy.body = "handler pool saturated\n";
      send_response(fd, busy);
      ::close(fd);
    }
  }
}

void HttpServer::handler_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;
      }
      fd = queue_.front();
      queue_.pop_front();
    }
    serve_connection(fd);
    ::close(fd);
  }
}

void HttpServer::dispatch(const HttpRequest& req, HttpResponse& res,
                          std::string& route_label) const {
  // GET routes answer HEAD too (the body is stripped by the caller).
  const std::string& method = req.method == "HEAD" ? "GET" : req.method;
  const Route* best = nullptr;
  const Route* known = nullptr;
  for (const Route& r : routes_) {
    const bool path_match =
        r.prefix ? req.path.compare(0, r.path.size(), r.path) == 0
                 : req.path == r.path;
    if (!path_match) continue;
    known = &r;
    if (r.method != method) continue;
    // Exact beats prefix; longer prefix beats shorter.
    if (best == nullptr || (best->prefix && !r.prefix) ||
        (best->prefix && r.prefix && r.path.size() > best->path.size())) {
      best = &r;
    }
  }
  if (best != nullptr) {
    route_label = best->path;
    res.status = 200;
    res.body.clear();
    best->handler(req, res);
    return;
  }
  if (known != nullptr) {
    route_label = known->path;
    res.status = 405;
    res.body = "method not allowed for this endpoint\n";
    return;
  }
  route_label = "(none)";
  res.status = 404;
  res.body = "no such endpoint\n";
}

std::vector<RouteStat> HttpServer::route_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void HttpServer::observe(const std::string& route, const std::string& method,
                         int status, std::uint64_t dur_ns,
                         std::uint64_t trace_id, const std::string& label) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  RouteStat* stat = nullptr;
  for (RouteStat& s : stats_) {
    if (s.route == route && s.method == method) {
      stat = &s;
      break;
    }
  }
  if (stat == nullptr) {
    stats_.push_back(RouteStat{});
    stat = &stats_.back();
    stat->route = route;
    stat->method = method;
  }
  ++stat->count;
  ++stat->by_status[status];
  stat->sum_ns += dur_ns;
  int bucket = 0;
  if (dur_ns > 0) {
    bucket = std::min(static_cast<int>(std::bit_width(dur_ns)),
                      telemetry::kHistogramBuckets - 1);
  }
  ++stat->buckets[bucket];
  if (dur_ns >= stat->max_ns) {
    stat->max_ns = dur_ns;
    stat->exemplar_trace = trace_id;
    stat->exemplar_label = label;
  }
}

void HttpServer::serve_connection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  const std::uint64_t t0 = now_ns();
  std::string head;
  HttpRequest req;
  HttpResponse res;
  // Requests that fail before routing (408/413/400) carry this label so
  // RED accounting still sees them without exploding label cardinality.
  std::string route_label = "(error)";
  const ReadStatus hs = read_request_head(fd, limits_, head, req.body);
  if (hs == ReadStatus::kClosed) return;  // nobody left to answer
  if (hs == ReadStatus::kTimeout) {
    res.status = 408;
    res.body = "timed out reading request\n";
  } else if (hs == ReadStatus::kTooLarge) {
    res.status = 413;
    res.body = "request head too large\n";
  } else if (!parse_request_line(head, req)) {
    res.status = 400;
    res.body = "malformed request\n";
  } else {
    std::string value;
    std::size_t content_length = 0;
    bool bad_length = false;
    if (find_header(head, "Content-Length", value)) {
      errno = 0;
      char* end = nullptr;
      const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || errno != 0) {
        res.status = 400;
        res.body = "malformed Content-Length\n";
        bad_length = true;
      } else {
        content_length = static_cast<std::size_t>(n);
      }
    }
    if (bad_length) {
      // handled above
    } else if (content_length > limits_.max_body_bytes) {
      res.status = 413;
      res.body = "request body exceeds " +
                 std::to_string(limits_.max_body_bytes) + " bytes\n";
    } else {
      if (content_length > 0 &&
          find_header(head, "Expect", value) &&
          value.find("100-continue") != std::string::npos) {
        // curl sends Expect for bodies over 1 KiB and waits for this nod.
        static const char kContinue[] = "HTTP/1.1 100 Continue\r\n\r\n";
        write_all(fd, kContinue, sizeof(kContinue) - 1);
      }
      const ReadStatus bs =
          read_request_body(fd, limits_, content_length, req.body);
      if (bs == ReadStatus::kClosed) return;
      if (bs == ReadStatus::kTimeout) {
        res.status = 408;
        res.body = "timed out reading request body\n";
      } else {
        req.body.resize(content_length);  // drop any pipelined excess
        dispatch(req, res, route_label);
      }
    }
  }
  // HEAD answers with the GET handler's status + headers — including the
  // Content-Length the body would have had — but no body (RFC 9110 §9.3.2).
  send_response(fd, res, /*head_only=*/req.method == "HEAD");
  served_.fetch_add(1, std::memory_order_relaxed);
  observe(route_label, req.method.empty() ? "(unknown)" : req.method,
          res.status, now_ns() - t0, res.trace_id, res.trace_label);
}

std::string http_get(int port, const std::string& path, int timeout_ms) {
  return http_request(port, "GET", path, std::string(), std::string(),
                      timeout_ms);
}

std::string http_request(int port, const std::string& method,
                         const std::string& path, const std::string& body,
                         const std::string& content_type, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return {};
  }
  std::string req = method + " " + path +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (method != "GET" && method != "HEAD") {
    if (!content_type.empty()) {
      req += "Content-Type: " + content_type + "\r\n";
    }
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  req += "Connection: close\r\n\r\n";
  if (method != "GET" && method != "HEAD") req += body;
  write_all(fd, req.data(), req.size());

  std::string out;
  char buf[4096];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr <= 0) break;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

int http_split_response(const std::string& raw, std::string& body) {
  body.clear();
  if (raw.compare(0, 5, "HTTP/") != 0) return 0;
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > raw.size()) return 0;
  int status = 0;
  for (std::size_t i = sp + 1; i < sp + 4 && i < raw.size(); ++i) {
    if (raw[i] < '0' || raw[i] > '9') return 0;
    status = status * 10 + (raw[i] - '0');
  }
  // An interim 100 Continue is followed by the real response; skip it.
  if (status == 100) {
    const std::size_t blank = raw.find("\r\n\r\n");
    if (blank == std::string::npos) return 0;
    return http_split_response(raw.substr(blank + 4), body);
  }
  const std::size_t blank = raw.find("\r\n\r\n");
  if (blank != std::string::npos) body = raw.substr(blank + 4);
  return status;
}

std::string http_header(const std::string& raw, const std::string& name) {
  const std::size_t end = raw.find("\r\n\r\n");
  std::size_t pos = raw.find("\r\n");
  while (pos != std::string::npos && pos < end) {
    const std::size_t eol = raw.find("\r\n", pos + 2);
    if (eol == std::string::npos) break;
    const std::string line = raw.substr(pos + 2, eol - pos - 2);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon == name.size()) {
      bool match = true;
      for (std::size_t i = 0; i < name.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(line[i])) !=
            std::tolower(static_cast<unsigned char>(name[i]))) {
          match = false;
          break;
        }
      }
      if (match) {
        std::size_t s = colon + 1;
        while (s < line.size() && line[s] == ' ') ++s;
        return line.substr(s);
      }
    }
    pos = eol;
  }
  return {};
}

}  // namespace tsmo::obs
