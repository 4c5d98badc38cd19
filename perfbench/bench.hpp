#pragma once

// Shared pieces of the benchmark program: options, the metric report, the
// benchmark's own span recorder, the output checks and small statistics.
// The benchmark only calls the program from outside (generators, engines'
// run(), SearchState, run_job_body, solver_cli over loopback HTTP); nothing
// here is compiled into the program itself.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/run_result.hpp"
#include "util/telemetry.hpp"
#include "vrptw/instance.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string bench_dir;   ///< perfbench/ (targets.json lives here)
  std::string out_dir;     ///< where the traced run writes its files
  std::string solver_cli;  ///< the deployed server binary (jobs-open)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one invocation prints: the metrics plus the operation
/// counts behind `success_ratio`.
struct Report {
  /// The metrics of BENCHMARK.json: every workload reports each of them,
  /// and they alone make up the result line.
  std::vector<Metric> metrics;
  /// Metrics of layers only some workloads run (the parallel engines, the
  /// service path): printed in the table and the traced run's layer file.
  std::vector<Metric> details;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// False when the run cannot be trusted as a measurement (a check
  /// failed, or the open-loop generator fell behind its schedule).
  bool valid = true;

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void detail(const std::string& name, double value, const std::string& unit,
              std::size_t samples) {
    details.push_back({name, value, unit, samples});
  }
  /// Counts one checked operation; a failed one also makes the run invalid.
  void operation(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      valid = false;
    }
  }
};

// ---------------------------------------------------------------------------
// Span recorder.  Spans are recorded only on the benchmark thread, around
// the calls it makes into each layer; a stack gives each span its
// parent, and all spans of one solve or job share that unit's trace id.

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

class Tracer {
 public:
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  /// Starts a new unit (one solve, job or job body) and returns its trace
  /// id; later spans carry it.
  std::uint64_t begin_unit() noexcept { return trace_id_ = ++next_trace_; }
  /// Returns to an earlier unit (interleaved jobs of the open loop).
  void resume_unit(std::uint64_t trace_id) noexcept { trace_id_ = trace_id; }

  std::size_t open(const char* name);
  void close(std::size_t index);

  std::size_t size() const noexcept { return spans_.size(); }

  /// Total and self seconds per span name over spans [from, to).  Self
  /// time is a span's duration minus the durations of its direct
  /// children (spans nest on one thread, so children never overlap).
  struct LayerTime {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, LayerTime> layer_times(std::size_t from,
                                               std::size_t to) const;

  /// Writes every span as Chrome-trace JSON (the format the program's
  /// telemetry layer emits).
  bool write_chrome_trace(const std::string& path) const;
  /// Writes the per-layer table (count, total and self time per span
  /// name) and the run's per-layer metrics as JSON.
  bool write_layer_table(const std::string& path,
                         const std::vector<Metric>& metrics) const;

 private:
  bool enabled_ = false;
  std::uint64_t trace_id_ = 0;
  std::uint64_t next_trace_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a no-op while the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(&tracer),
        index_(tracer.enabled() ? tracer.open(name) : kNone) {}
  ~Span() {
    if (index_ != kNone) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  Tracer* tracer_;
  std::size_t index_;
};

// ---------------------------------------------------------------------------
// Output checks.

/// Every customer of `inst` appears exactly once over `routes`.
bool serves_each_customer_once(const tsmo::Instance& inst,
                               const std::vector<std::vector<int>>& routes);

/// Rebuilds every front member of `r` from its routes, re-evaluates it from
/// scratch and compares the objectives bitwise; also checks the canonical
/// archive fingerprint.  Fills `why` on failure.
bool check_result(const tsmo::Instance& inst, const tsmo::RunResult& r,
                  std::string& why);

// ---------------------------------------------------------------------------
// Statistics and misc helpers.

double median(std::vector<double> v);
/// Linear-interpolation quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double now_s();
/// CPU time of the calling thread, seconds.  Unlike wall time it leaves
/// out the time the host does not run this virtual CPU (steal).
double thread_cpu_s();
std::string hex64(std::uint64_t v);
/// splitmix64 step: derives independent seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);
/// Peak resident set of this process, MiB.
double self_peak_rss_mb();

// ---------------------------------------------------------------------------
// Host-speed reference.  On a shared virtual machine the CPU time of a fixed
// piece of work drifts by up to a fifth between runs (other tenants share
// the cores, caches and memory).  Each run therefore also times a fixed
// kernel that is the benchmark's own code, not the program's, between the
// measured operations, and scales its CPU times to the speed at which the
// kernel takes kReferenceKernelS.

/// The kernel's CPU time on the machine the benchmark was defined on.
constexpr double kReferenceKernelS = 0.0055;

/// Runs the kernel once; returns its CPU time on the calling thread.
double reference_kernel_s();

/// kReferenceKernelS over the median of a run's kernel times: multiply a
/// CPU time of that run by it to get reference-speed seconds.
double reference_scale(const std::vector<double>& kernel_times);

// ---------------------------------------------------------------------------
// Solves and layer readings shared by the workloads.

/// Per-instance hypervolume targets from <bench-dir>/targets.json; throws
/// when the file is missing (run the calibration first).
std::map<std::string, double> read_targets(const Options& opt);

/// Objectives of the I1 solution SequentialTsmo::run starts from: its
/// first archive insertion, made before the iteration observer first fires.
tsmo::Objectives initial_objectives(const tsmo::Instance& inst,
                                    std::uint64_t seed);

struct SolveOutcome {
  tsmo::RunResult result;
  double wall_s = 0.0;
  /// seq only: CPU time of the solve and CPU time until the anytime
  /// hypervolume reached the target (the whole solve if it never did).
  double cpu_s = 0.0;
  double time_to_target_s = 0.0;
  bool reached = false;
  double anytime_hv = 0.0;
};

/// Untraced solve through the engine's run() (seq, or sync/async/coll at
/// P = 3, all deterministic).  seq runs on this thread, so its thread CPU
/// clock times it; the iteration observer follows the anytime hypervolume
/// of its archive insertions from outside.  `init` is
/// initial_objectives() of the solve.
SolveOutcome run_solve(const tsmo::Instance& inst, const std::string& engine,
                       const tsmo::TsmoParams& params,
                       const tsmo::Objectives& init, double target);

/// Drives deterministic seq through SearchState the way SequentialTsmo::run
/// does (same archive fingerprint), with a span around each call into
/// candidate lists, construction, generation and the step.
tsmo::RunResult drive_seq(const tsmo::Instance& inst,
                          const tsmo::TsmoParams& params, Tracer& tracer);

/// Per-layer quantities summed over traced solves, by key.
using LayerSums = std::map<std::string, double>;
/// Adds the telemetry registry's price, archive, screen, worker, barrier
/// and channel readings.
void add_telemetry(const tsmo::telemetry::Snapshot& snap, LayerSums& s);
/// Adds RunResult::introspect's operator, tabu and archive counts.
void add_introspect(const tsmo::RunResult& r, LayerSums& s);

// ---------------------------------------------------------------------------
// Workloads (one entry point each) and the calibration mode.

/// Instances of the jobs-open body mix (calibrated with the offline ones).
std::vector<std::string> jobs_open_instances();

/// Run one workload into `report`; errors throw.
void run_offline(const Options& opt, Report& report, Tracer& tracer);
void run_jobs_open(const Options& opt, Report& report, Tracer& tracer);
int run_calibrate(const Options& opt, const std::string& commit);

}  // namespace perfbench
