#pragma once

// Low-overhead telemetry layer (DESIGN.md §8).
//
// Three primitives, all merged into one `Snapshot`:
//   * named counters/gauges in a `Registry` backed by thread-local
//     cache-line-padded shards — a hot-path increment is a relaxed load +
//     relaxed store on a slot only the owning thread writes;
//   * fixed-bucket log2 latency histograms (ns→s range) with p50/p90/p99
//     extraction at snapshot time;
//   * RAII `Span`s recorded into per-thread ring buffers, exportable as
//     Chrome trace-event JSON (chrome://tracing / Perfetto).
//
// Everything is gated twice: at compile time by the TSMO_TELEMETRY_ENABLED
// preprocessor flag (CMake option TSMO_TELEMETRY; when OFF every macro below
// expands to nothing), and at run time by `telemetry::enabled()` (a relaxed
// atomic load; off by default, switched on by TsmoParams::telemetry or the
// --telemetry-out CLI flag).  Telemetry never touches the search RNG or any
// search decision, so fingerprints are identical with it on or off (tested
// by the golden-seed guard in tests/test_telemetry.cpp).
//
// Snapshot consistency: counter/gauge/histogram reads are racy-but-atomic
// (each shard slot is owner-written), so totals taken mid-run are merely
// approximate.  Span ring contents are plain records; take snapshots at
// quiescent points (after joining workers) for exact, torn-free data — all
// engines snapshot only after their teams have stopped.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/timer.hpp"

#ifndef TSMO_TELEMETRY_ENABLED
#define TSMO_TELEMETRY_ENABLED 1
#endif

namespace tsmo::telemetry {

/// log2 buckets: bucket 0 holds exact zeros, bucket b >= 1 holds
/// [2^(b-1), 2^b) ns.  44 buckets reach 2^42 ns ≈ 73 min in the top
/// (open-ended) bucket — comfortably past any single-run phase.
inline constexpr int kHistogramBuckets = 44;
inline constexpr int kMaxCounters = 192;
inline constexpr int kMaxGauges = 64;
inline constexpr int kMaxHistograms = 48;
/// Per-thread span ring capacity; older spans are overwritten and counted
/// as dropped.
inline constexpr int kSpanRingCapacity = 8192;

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Global runtime switch; hot paths check this before touching the shard.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the runtime switch; returns the previous value.
bool set_enabled(bool on) noexcept;

// ---------------------------------------------------------------------------
// Causal tracing (DESIGN.md §13).  A TraceContext names one request (a job,
// or a direct CLI run) and the innermost live span on the current thread.
// Ids are deterministic: trace ids are a splitmix64 mix of the request seed,
// span ids mix the trace id with a process-wide monotone counter — no
// wall clock and no RNG anywhere in the id path, so tracing can never
// perturb a seeded run.  The context propagates two ways: ambiently via a
// thread-local (TraceScope / Span nesting on one thread) and explicitly via
// RunContext across thread boundaries (engines re-establish scope on their
// master and worker threads).
// ---------------------------------------------------------------------------

struct TraceContext {
  std::uint64_t trace_id = 0;  ///< 0 = untraced
  std::uint64_t span_id = 0;   ///< innermost enclosing span (parent of children)

  bool valid() const noexcept { return trace_id != 0; }
};

/// Deterministic non-zero trace id from a request seed (splitmix64 finalizer).
std::uint64_t derive_trace_id(std::uint64_t seed) noexcept;

/// Fresh non-zero span id under `trace_id`: mixes the trace id with a
/// relaxed atomic counter (collision-free per process, clock/RNG-free).
std::uint64_t next_span_id(std::uint64_t trace_id) noexcept;

/// The calling thread's ambient context ({0,0} when untraced).
TraceContext current_trace() noexcept;
void set_current_trace(TraceContext ctx) noexcept;

/// RAII ambient-context scope.  An invalid context arms nothing, so passing
/// RunContext ids through unconditionally is safe for untraced runs.
class TraceScope {
 public:
  explicit TraceScope(TraceContext ctx) noexcept {
    if (ctx.valid()) {
      prev_ = current_trace();
      set_current_trace(ctx);
      armed_ = true;
    }
  }
  ~TraceScope() {
    if (armed_) set_current_trace(prev_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext prev_;
  bool armed_ = false;
};

/// One collected span of a trace.  `name` must have static storage (the
/// same contract record_span has); kind 1 marks an instant event.
struct TraceSpan {
  const char* name = nullptr;
  int tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root of the trace
  std::uint8_t kind = 0;        ///< 0 complete, 1 instant
};

/// Bounded per-request span collector.  Attach it to the registry under a
/// trace id (Registry::attach_trace) and every span recorded with that id
/// lands here until the budget fills; overflow is counted, never silently
/// lost.  Appends take a mutex — spans are per-round/per-chunk granularity,
/// never per-evaluation, so the lock is cold.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t budget)
      : budget_(budget == 0 ? 1 : budget) {}

  void append(const TraceSpan& span) {
    std::lock_guard<std::mutex> lock(mu_);
    ++seen_;
    if (spans_.size() >= budget_) {
      ++dropped_;
      return;
    }
    spans_.push_back(span);
  }

  std::vector<TraceSpan> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  std::size_t budget() const noexcept { return budget_; }
  std::uint64_t seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  std::size_t budget_;
  std::uint64_t seen_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Concurrently collectable traces; bounds the registry's subscription
/// table.  Attaching beyond it fails soft (spans simply stay uncollected).
inline constexpr int kMaxActiveTraces = 16;

/// Slot handles returned by Registry::counter/gauge/histogram.  Invalid ids
/// (registration table full) make every recording call a silent no-op.
struct CounterId {
  std::int16_t index = -1;
  bool valid() const noexcept { return index >= 0; }
};
struct GaugeId {
  std::int16_t index = -1;
  bool valid() const noexcept { return index >= 0; }
};
struct HistogramId {
  std::int16_t index = -1;
  bool valid() const noexcept { return index >= 0; }
};

struct CounterSnap {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnap {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSnap {
  std::string name;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;

  double mean_ns() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
  /// Quantile estimate by bucket walk with linear interpolation inside the
  /// hit bucket; exact to within the power-of-two bucket bounds.
  double quantile_ns(double q) const noexcept;
};

struct SpanSnap {
  std::string name;
  int tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  // Causal ids; all zero for untraced spans.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint8_t kind = 0;  ///< 0 complete, 1 instant
};

struct ThreadSnap {
  int tid = 0;
  std::string label;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
};

struct Snapshot {
  std::vector<CounterSnap> counters;
  std::vector<GaugeSnap> gauges;
  std::vector<HistogramSnap> histograms;
  std::vector<SpanSnap> spans;
  std::vector<ThreadSnap> threads;

  const CounterSnap* find_counter(const std::string& name) const noexcept;
  const GaugeSnap* find_gauge(const std::string& name) const noexcept;
  const HistogramSnap* find_histogram(const std::string& name) const noexcept;
};

/// Process-wide metrics registry.  The singleton is intentionally leaked so
/// thread_local shard leases destroyed during process teardown never touch a
/// dead object.
class Registry {
 public:
  static Registry& instance() noexcept;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register (or look up) a named slot.  Idempotent per name; returns an
  /// invalid id once the fixed table is full.
  CounterId counter(const std::string& name);
  GaugeId gauge(const std::string& name);
  HistogramId histogram(const std::string& name);

  /// Owner-thread increment on this thread's shard (relaxed load + store).
  void add(CounterId id, std::uint64_t delta = 1) noexcept;
  /// Gauges are process-global atomics (per-worker gauges get distinct
  /// names, so each is still single-writer in practice).
  void gauge_add(GaugeId id, std::int64_t delta) noexcept;
  void gauge_set(GaugeId id, std::int64_t value) noexcept;
  void record_ns(HistogramId id, std::uint64_t ns) noexcept;

  /// Appends an untraced span to this thread's ring buffer.  `name` must
  /// have static storage duration (string literal) — the record stores the
  /// pointer.
  void record_span(const char* name, std::uint64_t start_ns,
                   std::uint64_t dur_ns) noexcept;

  /// Traced span: mints a fresh span id under `parent` (when valid) and
  /// additionally routes the record to an attached TraceBuffer.
  void record_span(const char* name, std::uint64_t start_ns,
                   std::uint64_t dur_ns, TraceContext parent) noexcept;

  /// Traced span with a caller-minted id — the RAII Span mints its id at
  /// construction so children created inside it can parent to it.
  void record_span(const char* name, std::uint64_t start_ns,
                   std::uint64_t dur_ns, TraceContext parent,
                   std::uint64_t span_id) noexcept;

  /// Zero-duration instant event (Chrome "i" phase), e.g. an anytime-front
  /// insertion.  Untraced instants (invalid parent) are dropped — they only
  /// carry information relative to a trace.
  void record_instant(const char* name, std::uint64_t t_ns,
                      TraceContext parent) noexcept;

  /// Subscribes `buffer` to every span recorded under `trace_id`; at most
  /// kMaxActiveTraces subscriptions are live at once (false when full or
  /// the id is 0).  The buffer must stay alive until detach_trace returns.
  bool attach_trace(std::uint64_t trace_id, TraceBuffer* buffer);
  void detach_trace(std::uint64_t trace_id) noexcept;

  /// Names this thread's lane in the Chrome trace (e.g. "worker 3").
  void set_thread_label(const std::string& label);

  /// Merges every shard into one consistent view.  Call at quiescent points
  /// for exact data (see file header).
  Snapshot snapshot() const;

  /// Same, but `include_spans` false skips the per-thread span rings.
  /// Span records are plain (non-atomic) storage, so this is the variant
  /// a *live* reader — the /metrics scrape handler — must use; counters,
  /// gauges and histograms stay safe (racy-but-atomic) mid-run.
  Snapshot snapshot(bool include_spans) const;

  /// Zeroes all counters, gauges, histograms and span rings while keeping
  /// every registration valid (function-local static ids in the macros must
  /// survive a reset).
  void reset() noexcept;

  struct Impl;  // opaque; named by free helpers in telemetry.cpp

 private:
  Registry();
  ~Registry() = delete;  // leaked on purpose

  Impl* impl_;
};

/// RAII wall-clock span; records into the per-thread ring on destruction.
/// `name` must be a string literal (static storage).  Under a valid ambient
/// TraceContext the span mints its own id at construction and installs
/// itself as the ambient parent for its lifetime, so nested spans (and
/// record_span calls using current_trace()) form a rooted parent tree.
class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (enabled()) {
      name_ = name;
      start_ns_ = now_ns();
      parent_ = current_trace();
      if (parent_.valid()) {
        self_ = next_span_id(parent_.trace_id);
        set_current_trace(TraceContext{parent_.trace_id, self_});
      }
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      if (self_ != 0) set_current_trace(parent_);
      Registry::instance().record_span(name_, start_ns_, now_ns() - start_ns_,
                                       parent_, self_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  TraceContext parent_;
  std::uint64_t self_ = 0;
};

/// RAII duration recorder feeding a histogram.  Takes a capture-less lambda
/// (as a function pointer) that resolves the HistogramId lazily, so the
/// registration only happens once telemetry is actually enabled.
class ScopedTimer {
 public:
  using IdFn = HistogramId (*)();

  explicit ScopedTimer(IdFn resolve) noexcept {
    if (enabled()) {
      id_ = resolve();
      start_ns_ = now_ns();
      active_ = true;
    }
  }
  ~ScopedTimer() {
    if (active_) {
      Registry::instance().record_ns(id_, now_ns() - start_ns_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  HistogramId id_{};
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

/// Chrome trace-event JSON ("X" complete events + "M" thread_name metadata,
/// pid 0, tid = telemetry lane).  Load via chrome://tracing or ui.perfetto.dev.
void write_chrome_trace(std::ostream& os, const Snapshot& snap);

/// One JSON object per line: a meta header, then every counter, gauge,
/// histogram (with p50/p90/p99) and thread record.
void write_snapshot_jsonl(std::ostream& os, const Snapshot& snap);

/// Pairs an output trace path with a derived `.jsonl` snapshot path and
/// writes both files from one Snapshot.
class TelemetrySink {
 public:
  /// `trace_path` names the Chrome trace file; the JSONL snapshot lands next
  /// to it ("foo.json" -> "foo.jsonl", otherwise "<path>.jsonl").
  explicit TelemetrySink(std::string trace_path);

  const std::string& trace_path() const noexcept { return trace_path_; }
  const std::string& snapshot_path() const noexcept { return snapshot_path_; }

  /// Writes both files; returns false if either stream failed.
  bool write(const Snapshot& snap) const;

 private:
  std::string trace_path_;
  std::string snapshot_path_;
};

}  // namespace tsmo::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros.  All of them compile to nothing when the CMake
// option TSMO_TELEMETRY is OFF; when ON they are no-ops (one relaxed load)
// until telemetry::set_enabled(true).  Name arguments must be string
// literals; each call site caches its slot id in a function-local static.
// ---------------------------------------------------------------------------

#if TSMO_TELEMETRY_ENABLED

#define TSMO_TEL_CONCAT_IMPL(a, b) a##b
#define TSMO_TEL_CONCAT(a, b) TSMO_TEL_CONCAT_IMPL(a, b)

#define TSMO_COUNT_N(name_literal, delta)                                     \
  do {                                                                        \
    if (::tsmo::telemetry::enabled()) {                                       \
      static const ::tsmo::telemetry::CounterId TSMO_TEL_CONCAT(              \
          tsmo_tel_id_, __LINE__) =                                           \
          ::tsmo::telemetry::Registry::instance().counter(name_literal);      \
      ::tsmo::telemetry::Registry::instance().add(                            \
          TSMO_TEL_CONCAT(tsmo_tel_id_, __LINE__),                            \
          static_cast<std::uint64_t>(delta));                                 \
    }                                                                         \
  } while (0)

#define TSMO_COUNT(name_literal) TSMO_COUNT_N(name_literal, 1)

#define TSMO_GAUGE_SET(name_literal, value)                                   \
  do {                                                                        \
    if (::tsmo::telemetry::enabled()) {                                       \
      static const ::tsmo::telemetry::GaugeId TSMO_TEL_CONCAT(                \
          tsmo_tel_id_, __LINE__) =                                           \
          ::tsmo::telemetry::Registry::instance().gauge(name_literal);        \
      ::tsmo::telemetry::Registry::instance().gauge_set(                      \
          TSMO_TEL_CONCAT(tsmo_tel_id_, __LINE__),                            \
          static_cast<std::int64_t>(value));                                  \
    }                                                                         \
  } while (0)

#define TSMO_GAUGE_ADD(name_literal, delta)                                   \
  do {                                                                        \
    if (::tsmo::telemetry::enabled()) {                                       \
      static const ::tsmo::telemetry::GaugeId TSMO_TEL_CONCAT(                \
          tsmo_tel_id_, __LINE__) =                                           \
          ::tsmo::telemetry::Registry::instance().gauge(name_literal);        \
      ::tsmo::telemetry::Registry::instance().gauge_add(                      \
          TSMO_TEL_CONCAT(tsmo_tel_id_, __LINE__),                            \
          static_cast<std::int64_t>(delta));                                  \
    }                                                                         \
  } while (0)

/// Records a one-shot duration into a histogram without RAII.
#define TSMO_RECORD_NS(name_literal, ns)                                      \
  do {                                                                        \
    if (::tsmo::telemetry::enabled()) {                                       \
      static const ::tsmo::telemetry::HistogramId TSMO_TEL_CONCAT(            \
          tsmo_tel_id_, __LINE__) =                                           \
          ::tsmo::telemetry::Registry::instance().histogram(name_literal);    \
      ::tsmo::telemetry::Registry::instance().record_ns(                      \
          TSMO_TEL_CONCAT(tsmo_tel_id_, __LINE__),                            \
          static_cast<std::uint64_t>(ns));                                    \
    }                                                                         \
  } while (0)

/// Times the rest of the enclosing scope into a histogram.
#define TSMO_TIME_SCOPE(name_literal)                                         \
  ::tsmo::telemetry::ScopedTimer TSMO_TEL_CONCAT(tsmo_tel_timer_, __LINE__)(  \
      +[]() -> ::tsmo::telemetry::HistogramId {                               \
        static const ::tsmo::telemetry::HistogramId id =                      \
            ::tsmo::telemetry::Registry::instance().histogram(name_literal);  \
        return id;                                                            \
      })

/// Records the rest of the enclosing scope as a Chrome-trace span.
#define TSMO_SPAN(name_literal)                                               \
  ::tsmo::telemetry::Span TSMO_TEL_CONCAT(tsmo_tel_span_, __LINE__)(          \
      name_literal)

/// Span + histogram in one; use at block scope (expands to two declarations).
#define TSMO_SPAN_TIMED(span_literal, hist_literal)                           \
  TSMO_SPAN(span_literal);                                                    \
  TSMO_TIME_SCOPE(hist_literal)

/// Records an instant event ("i" phase) under the ambient trace context.
#define TSMO_INSTANT(name_literal)                                            \
  do {                                                                        \
    if (::tsmo::telemetry::enabled()) {                                       \
      ::tsmo::telemetry::Registry::instance().record_instant(                 \
          name_literal, ::tsmo::now_ns(),                                     \
          ::tsmo::telemetry::current_trace());                                \
    }                                                                         \
  } while (0)

/// Passes gated statements through verbatim (for non-macro-able telemetry
/// code, e.g. dynamically named per-worker gauges).  Wrap runtime-sensitive
/// bodies in `if (telemetry::enabled())` yourself.
#define TSMO_TELEMETRY_ONLY(...) __VA_ARGS__

#else  // !TSMO_TELEMETRY_ENABLED

#define TSMO_COUNT_N(name_literal, delta) \
  do {                                    \
  } while (0)
#define TSMO_COUNT(name_literal) \
  do {                           \
  } while (0)
#define TSMO_GAUGE_SET(name_literal, value) \
  do {                                      \
  } while (0)
#define TSMO_GAUGE_ADD(name_literal, delta) \
  do {                                      \
  } while (0)
#define TSMO_RECORD_NS(name_literal, ns) \
  do {                                   \
  } while (0)
#define TSMO_TIME_SCOPE(name_literal) \
  do {                                \
  } while (0)
#define TSMO_SPAN(name_literal) \
  do {                          \
  } while (0)
#define TSMO_SPAN_TIMED(span_literal, hist_literal) \
  do {                                              \
  } while (0)
#define TSMO_INSTANT(name_literal) \
  do {                             \
  } while (0)
#define TSMO_TELEMETRY_ONLY(...)

#endif  // TSMO_TELEMETRY_ENABLED
