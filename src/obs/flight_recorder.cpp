#include "obs/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstring>

#include "obs/buildinfo.hpp"
#include "util/progress.hpp"
#include "util/timer.hpp"

namespace tsmo::obs {

std::atomic<bool> FlightRecorder::g_enabled{false};

const char* to_string(FlightKind kind) noexcept {
  switch (kind) {
    case FlightKind::kEngineStart:
      return "engine_start";
    case FlightKind::kEngineFinish:
      return "engine_finish";
    case FlightKind::kArchiveInsert:
      return "archive_insert";
    case FlightKind::kStall:
      return "stall";
    case FlightKind::kChannelHighWater:
      return "channel_high_water";
    case FlightKind::kSignal:
      return "signal";
    case FlightKind::kServeStart:
      return "serve_start";
    case FlightKind::kServeStop:
      return "serve_stop";
    case FlightKind::kStopRequest:
      return "stop_request";
    case FlightKind::kJobSubmit:
      return "job_submit";
    case FlightKind::kJobStart:
      return "job_start";
    case FlightKind::kJobFinish:
      return "job_finish";
    case FlightKind::kJobCancel:
      return "job_cancel";
    case FlightKind::kNote:
      return "note";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder() : ring_(new Slot[kDefaultCapacity]) {}

FlightRecorder& FlightRecorder::instance() noexcept {
  // Leaked, like telemetry::Registry: hooks may fire during late teardown.
  static FlightRecorder* r = new FlightRecorder();
  return *r;
}

int FlightRecorder::configure_capacity(int slots) {
  const int cap = slots < 16 ? 16 : (slots > 65536 ? 65536 : slots);
  if (cap == capacity_.load(std::memory_order_relaxed)) {
    reset();
    return cap;
  }
  // The old ring is retired, not freed: a straggler hook that raced past
  // the documented "configure before enabling" contract still dereferences
  // valid memory instead of a freed block.
  retired_.push_back(ring_);
  ring_ = new Slot[static_cast<std::size_t>(cap)];
  capacity_.store(cap, std::memory_order_release);
  head_.store(0, std::memory_order_relaxed);
  return cap;
}

void FlightRecorder::record(FlightKind kind, const char* tag, std::int32_t a,
                            std::int32_t b, std::int64_t v,
                            std::uint64_t trace) noexcept {
  const std::uint64_t cap =
      static_cast<std::uint64_t>(capacity_.load(std::memory_order_acquire));
  const std::uint64_t seq =
      head_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = ring_[(seq - 1) % cap];
  // Mark in-progress so snapshot() skips the slot instead of reading a
  // half-written payload, then publish with a release store of the seq.
  slot.seq.store(0, std::memory_order_relaxed);
  slot.ev.seq = seq;
  slot.ev.t_ns = now_ns();
  slot.ev.kind = kind;
  slot.ev.a = a;
  slot.ev.b = b;
  slot.ev.v = v;
  slot.ev.trace = trace;
  std::size_t n = 0;
  if (tag != nullptr) {
    for (; n + 1 < sizeof(slot.ev.tag) && tag[n] != '\0'; ++n) {
      slot.ev.tag[n] = tag[n];
    }
  }
  slot.ev.tag[n] = '\0';
  slot.seq.store(seq, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t cap =
      static_cast<std::uint64_t>(capacity_.load(std::memory_order_acquire));
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t kept = head < cap ? head : cap;
  std::vector<FlightEvent> out;
  out.reserve(kept);
  for (std::uint64_t seq = head - kept + 1; seq <= head; ++seq) {
    const Slot& slot = ring_[(seq - 1) % cap];
    if (slot.seq.load(std::memory_order_acquire) != seq) continue;
    FlightEvent ev = slot.ev;
    // Re-check after the copy: a writer lapping us mid-copy tore the data.
    if (slot.seq.load(std::memory_order_acquire) != seq) continue;
    out.push_back(ev);
  }
  return out;
}

void FlightRecorder::reset() noexcept {
  const int cap = capacity_.load(std::memory_order_acquire);
  for (int i = 0; i < cap; ++i) {
    ring_[i].seq.store(0, std::memory_order_relaxed);
    ring_[i].ev = FlightEvent{};
  }
  head_.store(0, std::memory_order_relaxed);
  last_fingerprint_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Async-signal-safe postmortem writer.  Everything below restricts itself
// to write(2) plus integer formatting into a stack buffer — no allocation,
// no locks, no stdio.
// ---------------------------------------------------------------------------

namespace {

/// Buffered fd writer; flush loops over write(2), tolerating EINTR.
struct RawWriter {
  int fd;
  char buf[1024];
  std::size_t len = 0;

  explicit RawWriter(int fd_in) : fd(fd_in) {}

  void flush() noexcept {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) break;  // nothing recoverable mid-crash
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }

  void put(char c) noexcept {
    if (len == sizeof(buf)) flush();
    buf[len++] = c;
  }

  void str(const char* s) noexcept {
    for (; *s != '\0'; ++s) put(*s);
  }

  /// JSON string payload: escapes backslash/quote, drops control chars.
  void escaped(const char* s) noexcept {
    for (; *s != '\0'; ++s) {
      const char c = *s;
      if (c == '"' || c == '\\') {
        put('\\');
        put(c);
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        put(c);
      }
    }
  }

  void u64(std::uint64_t v) noexcept {
    char tmp[24];
    int n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + (v % 10));
      v /= 10;
    } while (v != 0);
    while (n > 0) put(tmp[--n]);
  }

  void i64(std::int64_t v) noexcept {
    if (v < 0) {
      put('-');
      // Negate via unsigned to survive INT64_MIN.
      u64(~static_cast<std::uint64_t>(v) + 1);
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }

  void hex64(std::uint64_t v) noexcept {
    str("0x");
    bool started = false;
    for (int shift = 60; shift >= 0; shift -= 4) {
      const int digit = static_cast<int>((v >> shift) & 0xF);
      if (!started && digit == 0 && shift != 0) continue;
      started = true;
      put("0123456789abcdef"[digit]);
    }
  }
};

const char* signal_name(int signo) noexcept {
  switch (signo) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    case SIGINT:
      return "SIGINT";
    case SIGTERM:
      return "SIGTERM";
    case 0:
      return "none";
    default:
      return "other";
  }
}

/// fd the crash handlers dump to; -1 until install_crash_handlers().
std::atomic<int> g_postmortem_fd{-1};

void tsmo_crash_handler(int signo) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.record(FlightKind::kSignal, signal_name(signo), signo);
  const int fd = g_postmortem_fd.load(std::memory_order_acquire);
  if (fd >= 0) {
    rec.dump_postmortem(fd, signo);
    ::fsync(fd);
  }
  // Restore the default disposition and re-raise so the process still dies
  // with the original signal (wait status stays truthful).
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

void FlightRecorder::dump_postmortem(int fd, int signo) const noexcept {
  RawWriter w(fd);
  w.str("{\n  \"signal\": ");
  w.i64(signo);
  w.str(",\n  \"signal_name\": \"");
  w.str(signal_name(signo));
  w.str("\",\n  \"t_ns\": ");
  w.u64(now_ns());
  w.str(",\n  \"build\": {\"git_sha\": \"");
  w.escaped(build_info().git_sha);
  w.str("\", \"compiler\": \"");
  w.escaped(build_info().compiler);
  w.str("\"},\n  \"trace_fingerprint\": \"");
  w.hex64(last_fingerprint_.load(std::memory_order_relaxed));
  w.str("\",\n  \"events_recorded\": ");
  w.u64(head_.load(std::memory_order_relaxed));
  w.str(",\n  \"events\": [");

  const std::uint64_t cap =
      static_cast<std::uint64_t>(capacity_.load(std::memory_order_relaxed));
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t kept = head < cap ? head : cap;
  bool first = true;
  for (std::uint64_t seq = head - kept + 1; seq <= head; ++seq) {
    const Slot& slot = ring_[(seq - 1) % cap];
    if (slot.seq.load(std::memory_order_acquire) != seq) continue;
    if (!first) w.put(',');
    first = false;
    w.str("\n    {\"seq\": ");
    w.u64(slot.ev.seq);
    w.str(", \"t_ns\": ");
    w.u64(slot.ev.t_ns);
    w.str(", \"kind\": \"");
    w.str(to_string(slot.ev.kind));
    w.str("\", \"tag\": \"");
    w.escaped(slot.ev.tag);
    w.str("\", \"a\": ");
    w.i64(slot.ev.a);
    w.str(", \"b\": ");
    w.i64(slot.ev.b);
    w.str(", \"v\": ");
    w.i64(slot.ev.v);
    w.str(", \"trace\": \"");
    w.hex64(slot.ev.trace);
    w.str("\"}");
  }
  w.str("\n  ],\n  \"heartbeats\": [");

  const HeartbeatBoard* board = board_.load(std::memory_order_acquire);
  if (board != nullptr) {
    const int n = board->size();
    for (int i = 0; i < n; ++i) {
      std::uint64_t beat_ns = 0;
      std::int64_t progress = 0;
      std::uint64_t beats = 0;
      board->read_raw(i, beat_ns, progress, beats);
      if (i > 0) w.put(',');
      w.str("\n    {\"slot\": ");
      w.i64(i);
      w.str(", \"label\": \"");
      w.escaped(board->label_c_str(i));
      w.str("\", \"last_beat_ns\": ");
      w.u64(beat_ns);
      w.str(", \"progress\": ");
      w.i64(progress);
      w.str(", \"beats\": ");
      w.u64(beats);
      w.put('}');
    }
  }
  w.str("\n  ]\n}\n");
  w.flush();
}

bool install_crash_handlers(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return false;
  const int old = g_postmortem_fd.exchange(fd, std::memory_order_acq_rel);
  if (old >= 0) ::close(old);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = tsmo_crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGBUS, &sa, nullptr);

  FlightRecorder::set_enabled(true);
  return true;
}

bool write_postmortem(const std::string& path, int signo) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return false;
  FlightRecorder::instance().dump_postmortem(fd, signo);
  ::close(fd);
  return true;
}

}  // namespace tsmo::obs
