#pragma once

// Anytime convergence recording (DESIGN.md §9).
//
// The paper's Tables I-IV report only end-of-run fronts, but its central
// claim — that the asynchronous and collaborative parallelizations reach
// good fronts *faster* — is an anytime property.  The ConvergenceRecorder
// makes it observable: it samples every searcher's Pareto archive on a dual
// schedule (every K iterations AND every T ms of wall clock), maintains
// anytime quality indicators (hypervolume against a fixed per-instance
// reference point, additive epsilon vs. the final front, archive size,
// Schott spacing), tags every archive insertion with the worker/operator
// that produced it, and watches per-worker heartbeats for stalls.
//
// Everything here is pure observation: the recorder never touches a search
// RNG or decision, so deterministic-mode trace/archive fingerprints are
// bitwise-identical with the recorder attached or not (guarded by
// tests/test_golden_seed.cpp).  The one deliberate exception is the
// opt-in stall reaction (RunContext::stall_restart), which
// routes a watchdog verdict into the engine's existing diversification
// path and is off by default.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "moo/metrics.hpp"
#include "util/progress.hpp"
#include "vrptw/instance.hpp"
#include "vrptw/objectives.hpp"

namespace tsmo {

/// Fixed per-instance reference point for anytime hypervolume: strictly
/// worse than any solution the search can report (one more vehicle than
/// the fleet allows, the single-customer-tour distance bound with margin,
/// and a horizon-scaled tardiness bound).  Deterministic in the instance.
Objectives convergence_reference(const Instance& inst);

/// Anytime hypervolume of the non-dominated set of every point fed in,
/// relative to a fixed reference.  Monotone non-decreasing by construction,
/// which is what makes it a convergence measure (a capacity-bounded archive
/// with crowding eviction is not monotone).
///
/// Incremental contract: the common case — a point that is dominated by,
/// equal to, or outside the tracked front — is an O(|front|) dominance scan
/// with no hypervolume work.  Only a genuine front improvement triggers a
/// sweep over the (small) tracked front, and the cached value is then
/// *bitwise identical* to hypervolume() recomputed from scratch over the
/// same set (fuzz-checked in tests/test_anytime.cpp).
class IncrementalHypervolume {
 public:
  IncrementalHypervolume() = default;
  explicit IncrementalHypervolume(const Objectives& reference)
      : ref_(reference) {}

  const Objectives& reference() const noexcept { return ref_; }

  /// Feeds one point.  Returns true when the tracked front (and therefore
  /// the hypervolume) changed.  Points not strictly inside the reference
  /// box are ignored (they contribute no volume and cannot dominate an
  /// interior point).
  bool add(const Objectives& p);

  double value() const noexcept { return value_; }
  /// Hypervolume gained by the last accepted point (0 if none yet).
  double last_gain() const noexcept { return last_gain_; }
  /// Non-dominated set of all accepted points, in insertion order.
  const std::vector<Objectives>& front() const noexcept { return front_; }

  std::uint64_t points_seen() const noexcept { return seen_; }
  /// Number of full sweeps performed (== number of front changes).
  std::uint64_t recomputes() const noexcept { return recomputes_; }

 private:
  Objectives ref_;
  std::vector<Objectives> front_;
  double value_ = 0.0;
  double last_gain_ = 0.0;
  std::uint64_t seen_ = 0;
  std::uint64_t recomputes_ = 0;
};

struct ConvergenceConfig {
  /// Reference point for the hypervolume indicators (convergence_reference
  /// of the instance under study).
  Objectives reference{1.0e12, 1 << 20, 1.0e12};
  /// Dual sampling schedule: a sample fires every `sample_every_iters`
  /// searcher iterations and additionally once `sample_every_ms` of wall
  /// clock passed since that searcher's last sample (CLI --sample-iters,
  /// --sample-ms).
  int sample_every_iters = 50;
  double sample_every_ms = 250.0;
  /// Stall watchdog: a worker whose last heartbeat is older than this is
  /// flagged (a structured `stall` event).  <= 0 disables the monitor
  /// thread entirely.
  double stall_threshold_ms = 0.0;
  double stall_check_interval_ms = 25.0;
};

/// One archive-quality sample of one searcher.
struct ConvergenceSample {
  int searcher = 0;
  std::int64_t iteration = 0;
  std::int64_t evaluations = 0;
  std::uint64_t t_ns = 0;  ///< since recorder construction
  /// Monotone anytime hypervolume of this searcher / of all searchers.
  double hv = 0.0;
  double hv_global = 0.0;
  std::size_t archive_size = 0;
  double spacing = 0.0;
  /// Best distance over feasible (tardiness-free) archive insertions so
  /// far; 0 until one exists.
  double best_feasible_distance = 0.0;
  /// Additive epsilon of the sampled archive vs. the *final* front —
  /// +inf until finalize() fills it in.
  double eps_to_final = 0.0;
  std::vector<Objectives> archive;  ///< snapshot (for the epsilon pass)
};

/// One successful archive insertion, tagged with its provenance.
struct InsertionEvent {
  int searcher = 0;
  int worker = -1;  ///< generation worker that produced the move; -1 = self
  int op = -1;      ///< MoveType index; -1 = construction / restart pick
  std::int64_t iteration = 0;
  Objectives obj;
  std::uint64_t t_ns = 0;
  bool survived = false;  ///< member of the final front (set by finalize)
};

/// One watchdog verdict.
struct StallRecord {
  int slot = -1;
  std::string label;
  double age_ms = 0.0;
  std::int64_t progress = 0;
  std::uint64_t t_ns = 0;
};

/// Engine lifecycle marker (start/finish).
struct LifecycleEvent {
  std::string kind;  ///< "engine_start" | "engine_finish"
  std::string engine;
  int searchers = 0;
  int workers = 0;
  std::int64_t iterations = 0;  ///< finish only
  std::uint64_t t_ns = 0;
};

/// Per-(searcher, worker, operator) contribution summary over the run.
struct AttributionRow {
  int searcher = 0;
  int worker = -1;
  int op = -1;
  std::int64_t insertions = 0;  ///< archive insertions produced
  std::int64_t survived = 0;    ///< of those, members of the final front
};

/// Thread-safe recorder shared by every searcher/worker of one run.  The
/// engines drive it through three surfaces:
///   * attach() hands each searcher a Searcher handle whose hot-path calls
///     (heartbeat, sample_due) are lock-free or owner-thread-only;
///   * register_worker()/worker_heartbeat() give generation workers
///     heartbeat-only gauges;
///   * engine_started()/engine_finished() bracket the run.
/// The owner (CLI, bench, test) then calls finalize(final_front) once and
/// write_jsonl() to emit the convergence.jsonl event stream.
class ConvergenceRecorder {
 public:
  explicit ConvergenceRecorder(ConvergenceConfig config);
  ~ConvergenceRecorder();

  ConvergenceRecorder(const ConvergenceRecorder&) = delete;
  ConvergenceRecorder& operator=(const ConvergenceRecorder&) = delete;

  /// Per-searcher handle.  heartbeat() and sample_due() are safe on the
  /// owning searcher thread without locking; sample()/record_insertion()
  /// take the recorder mutex.
  class Searcher {
   public:
    int id() const noexcept { return id_; }

    /// One beat per iteration: feeds the stall watchdog and the live
    /// status line.
    void heartbeat(std::int64_t iteration) noexcept {
      rec_->board_.beat(slot_, iteration);
    }

    /// Cheap dual-schedule check; true when a sample should be taken.
    bool sample_due(std::int64_t iteration) noexcept;

    /// Takes one archive sample (computes the indicators, appends a
    /// sample event) and resets both schedules.
    void sample(std::int64_t iteration, std::int64_t evaluations,
                std::vector<Objectives> archive);

    /// Logs one successful archive insertion with provenance and updates
    /// the searcher's anytime hypervolume tracker.
    void record_insertion(const Objectives& obj, int op, int worker,
                          std::int64_t iteration);

   private:
    friend class ConvergenceRecorder;
    ConvergenceRecorder* rec_ = nullptr;
    int id_ = 0;
    int slot_ = -1;
    IncrementalHypervolume hv_;       // owner thread only
    double best_feasible_ = 0.0;      // owner thread only
    std::int64_t last_sample_iter_ = 0;
    std::uint64_t last_sample_ns_ = 0;
  };

  /// Registers (or looks up) the handle for `searcher_id`.  Safe to call
  /// from multiple threads; each id gets one stable handle.
  Searcher* attach(int searcher_id, const std::string& label);

  /// Heartbeat-only slot for a generation worker ("worker 3" etc.).
  int register_worker(const std::string& label);
  void worker_heartbeat(int slot, std::int64_t progress) noexcept {
    board_.beat(slot, progress);
  }

  void engine_started(const std::string& engine, int searchers, int workers);
  void engine_finished(std::int64_t iterations);

  /// Invoked (on the watchdog thread) with the searcher id of every newly
  /// flagged stalled searcher — the hook the engines use to route a stall
  /// into their diversification path.  Worker (non-searcher) slots do not
  /// trigger it.  Pass nullptr to clear; engines must clear before their
  /// searcher states die.
  void set_stall_action(std::function<void(int searcher_id)> action);

  // --- Live view (any thread) ---
  /// "engine | it 123 | 456 it/s | hv 1.2e+09 | stalled 0" for the
  /// --progress status line.
  std::string status_line() const;
  int stalled_count() const noexcept;
  std::int64_t stalls_flagged() const noexcept;
  double global_hv() const;

  /// Consistent copy of the live run state, taken under the recorder
  /// mutex — the mid-run surface the /status endpoint serves.
  struct LiveStatus {
    std::string engine;
    double hv_global = 0.0;
    std::vector<Objectives> front;  ///< global non-dominated set so far
    std::size_t samples = 0;
    std::size_t insertions = 0;
    std::size_t stalls = 0;
    std::uint64_t engine_start_ns = 0;  ///< 0 until engine_started()
  };
  LiveStatus live_status() const;

  /// Observer invoked (under the recorder lock, on the watchdog thread)
  /// for every recorded stall verdict.  Lets the obs layer route stalls
  /// into the flight recorder without a moo->obs dependency.  Same
  /// contract as set_stall_action: keep it tiny, never call back into
  /// the recorder.
  void set_stall_observer(std::function<void(const StallRecord&)> observer);

  // --- Post-run (quiescent: after the engine returned) ---
  /// Computes eps_to_final for every sample, marks surviving insertions,
  /// and builds the attribution table.  Idempotent guard: second call is
  /// ignored.
  void finalize(const std::vector<Objectives>& final_front);
  bool finalized() const noexcept { return finalized_; }

  const ConvergenceConfig& config() const noexcept { return config_; }
  const HeartbeatBoard& board() const noexcept { return board_; }
  const std::vector<ConvergenceSample>& samples() const noexcept {
    return samples_;
  }
  const std::vector<InsertionEvent>& insertions() const noexcept {
    return insertions_;
  }
  const std::vector<StallRecord>& stalls() const noexcept { return stalls_; }
  const std::vector<AttributionRow>& attribution() const noexcept {
    return attribution_;
  }

  /// Writes the convergence.jsonl event stream: one meta line, lifecycle
  /// events, samples, insertions, stalls, and attribution rows.  Call
  /// after finalize() so epsilon/survival fields are filled.
  void write_jsonl(std::ostream& os) const;
  bool write_jsonl(const std::string& path) const;

 private:
  void on_stall(const StallWatchdog::StallEvent& ev);

  ConvergenceConfig config_;
  std::uint64_t epoch_ns_;
  HeartbeatBoard board_;

  mutable std::mutex mutex_;
  std::deque<Searcher> searchers_;       // stable addresses
  std::vector<int> searcher_slots_;      // board slots of searchers
  std::vector<int> slot_to_searcher_;    // board slot -> searcher id (-1)
  IncrementalHypervolume global_hv_;
  std::vector<ConvergenceSample> samples_;
  std::vector<InsertionEvent> insertions_;
  std::vector<StallRecord> stalls_;
  std::vector<LifecycleEvent> lifecycle_;
  std::vector<AttributionRow> attribution_;
  std::function<void(int)> stall_action_;
  std::function<void(const StallRecord&)> stall_observer_;
  std::string engine_name_;
  std::uint64_t engine_start_ns_ = 0;
  bool finalized_ = false;

  std::unique_ptr<StallWatchdog> watchdog_;  // last member: dies first
};

}  // namespace tsmo
