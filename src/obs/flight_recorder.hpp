#pragma once

// Crash-safe flight recorder (DESIGN.md §10).
//
// A fixed-size lock-free ring of recent structured events — engine
// lifecycle, archive insertions, stall verdicts, channel high-water marks,
// signals — fed from the same hook points the telemetry/progress layers
// already use.  Recording is one relaxed fetch_add plus plain stores on a
// slot the claiming thread owns, so it is cheap enough to leave on for any
// operational run and is *async-signal-safe* (no locks, no allocation):
// the SIGSEGV/SIGABRT/SIGBUS handlers installed by
// install_crash_handlers() replay the ring into a postmortem JSON document
// using only write(2) on a pre-opened file descriptor.
//
// Like telemetry and the convergence recorder, the flight recorder is pure
// observation: hooks are gated on a relaxed atomic `enabled()` check and
// never touch a search RNG or decision, so deterministic-mode fingerprints
// are bitwise identical with the recorder on or off (guarded by
// tests/test_golden_seed.cpp).

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace tsmo {
class HeartbeatBoard;
}  // namespace tsmo

namespace tsmo::obs {

enum class FlightKind : std::uint8_t {
  kEngineStart = 0,
  kEngineFinish,
  kArchiveInsert,
  kStall,
  kChannelHighWater,
  kSignal,
  kServeStart,
  kServeStop,
  kStopRequest,
  kJobSubmit,
  kJobStart,
  kJobFinish,
  kJobCancel,
  kNote,
};

/// Human-readable name of a kind ("engine_start", ...); static storage.
const char* to_string(FlightKind kind) noexcept;

/// One ring entry.  POD with a short inline tag so recording never
/// allocates; the meaning of a/b/v depends on the kind:
///   kEngineStart       tag=engine   a=searchers b=workers
///   kEngineFinish      tag=engine   v=iterations
///   kArchiveInsert     a=searcher   b=operator (-1 init/restart)  v=iteration
///   kStall             tag=label    a=slot      v=progress
///   kChannelHighWater  tag=channel  v=depth
///   kSignal            a=signo
///   kServeStart/Stop   b=port
///   kJobSubmit         tag=job id   a=queue depth after admission
///   kJobStart          tag=job id   v=queue wait [ms]
///   kJobFinish         tag=job id   a=terminal state  v=run [ms]
///   kJobCancel         tag=job id   a=1 when it was already running
struct FlightEvent {
  std::uint64_t seq = 0;   ///< 1-based global claim order
  std::uint64_t t_ns = 0;  ///< now_ns() at record time
  FlightKind kind = FlightKind::kNote;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int64_t v = 0;
  std::uint64_t trace = 0;  ///< causal trace id (DESIGN.md §13); 0 = untraced
  char tag[16] = {};        ///< NUL-terminated, truncated label
};

/// Process-wide ring.  The singleton is leaked (like telemetry::Registry)
/// so hooks in thread teardown paths never touch a dead object.
class FlightRecorder {
 public:
  /// Default ring capacity; comfortably above the 64 events the postmortem
  /// contract promises.  Runtime-configurable via configure_capacity().
  static constexpr int kDefaultCapacity = 256;

  static FlightRecorder& instance() noexcept;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Global runtime switch (off by default); every hook checks this first.
  static bool enabled() noexcept {
    return g_enabled.load(std::memory_order_relaxed);
  }
  /// Flips the switch; returns the previous value.
  static bool set_enabled(bool on) noexcept {
    return g_enabled.exchange(on, std::memory_order_relaxed);
  }

  /// Appends one event.  Lock-free, allocation-free, async-signal-safe.
  /// `tag` may be nullptr; longer tags are truncated to fit FlightEvent.
  void record(FlightKind kind, const char* tag, std::int32_t a = 0,
              std::int32_t b = 0, std::int64_t v = 0,
              std::uint64_t trace = 0) noexcept;

  /// Resizes the ring, clearing it (clamped to [16, 65536];
  /// --flight-slots).  NOT safe concurrently with record() or a crash
  /// handler — call during startup, before enabling the recorder.  The
  /// old ring is retired, never freed.  Returns the capacity applied.
  int configure_capacity(int slots);

  /// Current ring capacity.
  int capacity() const noexcept {
    return capacity_.load(std::memory_order_acquire);
  }

  /// Total events ever recorded (ring keeps the last capacity()).
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Copies the ring, oldest first.  Events torn by a concurrent writer
  /// (seq mismatch) are skipped, so the result is always consistent.
  std::vector<FlightEvent> snapshot() const;

  /// Clears the ring (tests).  Not safe concurrently with record().
  void reset() noexcept;

  /// Board whose per-worker heartbeats the postmortem dump includes; the
  /// board must outlive any crash (engines register it for the run's
  /// duration and clear it afterwards).  Pass nullptr to detach.
  void set_heartbeat_board(const HeartbeatBoard* board) noexcept {
    board_.store(board, std::memory_order_release);
  }

  /// Last RunTrace fingerprint stamped by a searcher (0 until one is).
  void note_fingerprint(std::uint64_t fp) noexcept {
    last_fingerprint_.store(fp, std::memory_order_relaxed);
  }
  std::uint64_t last_fingerprint() const noexcept {
    return last_fingerprint_.load(std::memory_order_relaxed);
  }

  /// Writes the postmortem JSON document to `fd` using only
  /// async-signal-safe calls (write(2), no allocation, no locks):
  /// signal number/name, build info, last trace fingerprint, the ring
  /// contents and per-worker heartbeats.  `signo` 0 marks an on-demand
  /// (non-crash) dump.
  void dump_postmortem(int fd, int signo) const noexcept;

 private:
  FlightRecorder();
  ~FlightRecorder() = delete;  // leaked on purpose

  struct Slot {
    /// 0 while a writer fills the payload; the claiming seq afterwards.
    std::atomic<std::uint64_t> seq{0};
    FlightEvent ev;
  };

  static std::atomic<bool> g_enabled;

  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> last_fingerprint_{0};
  std::atomic<const HeartbeatBoard*> board_{nullptr};
  std::atomic<int> capacity_{kDefaultCapacity};
  Slot* ring_;  ///< heap array of capacity() slots; leaked with the singleton
  /// Every ring configure_capacity() replaced.  Kept reachable and never
  /// freed, so a straggler hook still writes valid memory (and leak
  /// checkers see no orphaned block).
  std::vector<Slot*> retired_;
};

/// Arms SIGSEGV/SIGABRT/SIGBUS: pre-opens `path` (truncating) and installs
/// handlers that dump the postmortem there before re-raising with the
/// default disposition (so exit status still reports the crash).  Also
/// enables the recorder.  Returns false when the file cannot be opened.
/// Calling it again re-points the dump at a new path.
bool install_crash_handlers(const std::string& path);

/// Writes a postmortem to `path` immediately (no crash required); used by
/// tests and by operators who want a dump of a healthy process.
bool write_postmortem(const std::string& path, int signo = 0);

// ---------------------------------------------------------------------------
// Hook helpers: one enabled() branch when the recorder is off.
// ---------------------------------------------------------------------------

inline void flight_engine_start(const char* engine, int searchers, int workers,
                                std::uint64_t trace = 0) noexcept {
  if (FlightRecorder::enabled()) {
    FlightRecorder::instance().record(FlightKind::kEngineStart, engine,
                                      searchers, workers, 0, trace);
  }
}

inline void flight_engine_finish(const char* engine, std::int64_t iterations,
                                 std::uint64_t trace = 0) noexcept {
  if (FlightRecorder::enabled()) {
    FlightRecorder::instance().record(FlightKind::kEngineFinish, engine, 0, 0,
                                      iterations, trace);
  }
}

inline void flight_archive_insert(int searcher, int op, std::int64_t iteration,
                                  std::uint64_t trace = 0) noexcept {
  if (FlightRecorder::enabled()) {
    FlightRecorder::instance().record(FlightKind::kArchiveInsert, nullptr,
                                      searcher, op, iteration, trace);
  }
}

inline void flight_stall(const char* label, int slot,
                         std::int64_t progress) noexcept {
  if (FlightRecorder::enabled()) {
    FlightRecorder::instance().record(FlightKind::kStall, label, slot, 0,
                                      progress);
  }
}

inline void flight_channel_high_water(const char* label,
                                      std::int64_t depth) noexcept {
  if (FlightRecorder::enabled()) {
    FlightRecorder::instance().record(FlightKind::kChannelHighWater, label, 0,
                                      0, depth);
  }
}

inline void flight_fingerprint(std::uint64_t fp) noexcept {
  if (FlightRecorder::enabled()) {
    FlightRecorder::instance().note_fingerprint(fp);
  }
}

}  // namespace tsmo::obs
