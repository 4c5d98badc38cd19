// Benchmark program: runs one named workload under a seed, checks the
// outputs and prints the metrics.  perfbench/run.py builds and invokes it;
// see perfbench/README.md for the workloads and metric definitions.
//
//   perfbench --workload paper-grid --seed 1 --seconds 20 --trace 0
//       --bench-dir perfbench --out-dir .bench_build/out
//       --solver-cli .bench_build/tsmo/examples/solver_cli
//   perfbench --calibrate --commit <sha> --bench-dir perfbench

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"
#include "vrptw/solution.hpp"

namespace perfbench {

// --- Tracer ----------------------------------------------------------------

std::size_t Tracer::open(const char* name) {
  SpanRecord s;
  s.name = name;
  s.trace_id = trace_id_;
  s.span_id = ++next_id_;
  s.parent_id = stack_.empty() ? 0 : spans_[stack_.back()].span_id;
  s.start_ns = tsmo::now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = tsmo::now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times(
    std::size_t from, std::size_t to) const {
  std::map<std::string, LayerTime> out;
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = from; i < to; ++i) by_id[spans_[i].span_id] = i;
  std::vector<double> self(to - from, 0.0);
  for (std::size_t i = from; i < to; ++i) {
    const SpanRecord& s = spans_[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    self[i - from] += d;
    if (const auto it = by_id.find(s.parent_id); it != by_id.end()) {
      self[it->second - from] -= d;
    }
  }
  for (std::size_t i = from; i < to; ++i) {
    const SpanRecord& s = spans_[i];
    LayerTime& lt = out[s.name];
    ++lt.count;
    lt.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    lt.self_s += self[i - from];
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  tsmo::telemetry::Snapshot snap;
  snap.spans.reserve(spans_.size());
  for (const SpanRecord& s : spans_) {
    tsmo::telemetry::SpanSnap ss;
    ss.name = s.name;
    ss.tid = 0;
    ss.start_ns = s.start_ns;
    ss.dur_ns = s.end_ns - s.start_ns;
    ss.trace_id = s.trace_id;
    ss.span_id = s.span_id;
    ss.parent_id = s.parent_id;
    snap.spans.push_back(std::move(ss));
  }
  tsmo::telemetry::ThreadSnap t;
  t.tid = 0;
  t.label = "perfbench";
  t.spans_recorded = spans_.size();
  snap.threads.push_back(t);
  std::ofstream os(path);
  tsmo::telemetry::write_chrome_trace(os, snap);
  return static_cast<bool>(os);
}

bool Tracer::write_layer_table(const std::string& path,
                               const std::vector<Metric>& metrics) const {
  std::ofstream os(path);
  tsmo::JsonWriter w(os);
  w.begin_object();
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.key("samples").value(static_cast<std::int64_t>(m.samples));
    w.end_object();
  }
  w.end_object();
  w.key("layers").begin_array();
  for (const auto& [name, lt] : layer_times(0, spans_.size())) {
    w.begin_object();
    w.key("span").value(name);
    w.key("count").value(static_cast<std::int64_t>(lt.count));
    w.key("total_s").value(lt.total_s);
    w.key("self_s").value(lt.self_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return static_cast<bool>(os);
}

// --- Checks ----------------------------------------------------------------

namespace {

bool same_bits(const tsmo::Objectives& a, const tsmo::Objectives& b) {
  return std::bit_cast<std::uint64_t>(a.distance) ==
             std::bit_cast<std::uint64_t>(b.distance) &&
         a.vehicles == b.vehicles &&
         std::bit_cast<std::uint64_t>(a.tardiness) ==
             std::bit_cast<std::uint64_t>(b.tardiness);
}

/// Objectives with every digit, for check failure messages.
std::string exact(const tsmo::Objectives& o) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(%.17g, %d, %.17g)", o.distance,
                o.vehicles, o.tardiness);
  return buf;
}

}  // namespace

bool serves_each_customer_once(const tsmo::Instance& inst,
                               const std::vector<std::vector<int>>& routes) {
  const int n = inst.num_customers();
  std::vector<int> seen(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& route : routes) {
    for (int c : route) {
      if (c < 1 || c > n) return false;
      if (seen[static_cast<std::size_t>(c)]++ != 0) return false;
    }
  }
  return std::all_of(seen.begin() + 1, seen.end(),
                     [](int k) { return k == 1; });
}

bool check_result(const tsmo::Instance& inst, const tsmo::RunResult& r,
                  std::string& why) {
  if (r.front.empty() || r.front.size() != r.solutions.size()) {
    why = "front and solutions disagree";
    return false;
  }
  for (std::size_t i = 0; i < r.front.size(); ++i) {
    const tsmo::Solution& s = r.solutions[i];
    std::vector<std::vector<int>> routes;
    for (int k = 0; k < s.num_routes(); ++k) routes.push_back(s.route(k));
    if (!serves_each_customer_once(inst, routes)) {
      why = "front member " + std::to_string(i) +
            " does not serve every customer exactly once";
      return false;
    }
    const tsmo::Solution fresh =
        tsmo::Solution::from_routes(inst, std::move(routes));
    if (!same_bits(fresh.objectives(), r.front[i])) {
      why = "front member " + std::to_string(i) + " re-evaluates to " +
            exact(fresh.objectives()) + ", reported " + exact(r.front[i]);
      return false;
    }
  }
  if (tsmo::archive_fingerprint(r.front) != r.archive_fingerprint) {
    why = "archive fingerprint does not match the front";
    return false;
  }
  return true;
}

// --- Helpers ---------------------------------------------------------------

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double now_s() { return static_cast<double>(tsmo::now_ns()) * 1e-9; }

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0x7fffffffffffULL;  // exact through JSON
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- Host-speed reference --------------------------------------------------

namespace {

/// Random 2-opt move evaluations on a random 1000-city distance matrix
/// (8 MB): scattered memory reads and floating-point work, as in the
/// program's move evaluation, but none of the program's code.
class ReferenceKernel {
 public:
  ReferenceKernel() {
    std::uint64_t x = 42;
    dist_.resize(static_cast<std::size_t>(kCities) * kCities);
    for (double& d : dist_) {
      x = lcg(x);
      d = static_cast<double>(x >> 44) * 0.01;
    }
    for (int i = 0; i < kCities; ++i) tour_.push_back(i);
    for (int i = kCities - 1; i > 0; --i) {
      x = lcg(x);
      std::swap(tour_[static_cast<std::size_t>(i)],
                tour_[(x >> 33) % static_cast<std::uint64_t>(i + 1)]);
    }
  }

  /// Applies every improving move to a copy of the tour; returns the sum
  /// of the deltas so the work cannot be optimized away.
  double run() const {
    std::vector<int> t = tour_;
    auto d = [&](int a, int b) {
      return dist_[static_cast<std::size_t>(t[a]) * kCities +
                   static_cast<std::size_t>(t[b])];
    };
    std::uint64_t x = 99;
    double sum = 0.0;
    for (int k = 0; k < kMoves; ++k) {
      x = lcg(x);
      const int a = static_cast<int>((x >> 33) % (kCities - 2));
      const int b = a + 2 + static_cast<int>((x >> 13) % 40);
      if (b >= kCities - 1) continue;
      const double delta = d(a, b) + d(a + 1, b + 1) - d(a, a + 1) -
                           d(b, b + 1);
      if (delta < 0.0) std::reverse(t.begin() + a + 1, t.begin() + b + 1);
      sum += delta;
    }
    return sum;
  }

 private:
  static constexpr int kCities = 1000;
  static constexpr int kMoves = 100000;
  static std::uint64_t lcg(std::uint64_t x) {
    return x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  std::vector<double> dist_;
  std::vector<int> tour_;
};

/// Where the kernel's result goes, so its work cannot be optimized away.
std::atomic<double> g_reference_sink{0.0};

}  // namespace

double reference_kernel_s() {
  static const ReferenceKernel kernel;
  const double t0 = thread_cpu_s();
  g_reference_sink.store(kernel.run(), std::memory_order_relaxed);
  return thread_cpu_s() - t0;
}

double reference_scale(const std::vector<double>& kernel_times) {
  const double m = median(kernel_times);
  return m > 0.0 ? kReferenceKernelS / m : 1.0;
}

}  // namespace perfbench

namespace {

void usage() {
  std::cerr
      << "usage: perfbench --workload <paper-grid|pruned-1000|"
         "jobs-open> --seed <n> --seconds <s> --trace <0|1>\n"
         "                 --bench-dir <dir> --out-dir <dir> "
         "--solver-cli <path>\n"
         "       perfbench --calibrate --commit <sha> "
         "--bench-dir <dir>\n";
}

/// The metrics of BENCHMARK.json, then the workload's own details.
std::vector<perfbench::Metric> all_metrics(const perfbench::Report& r) {
  std::vector<perfbench::Metric> all = r.metrics;
  all.insert(all.end(), r.details.begin(), r.details.end());
  return all;
}

void print_result(const perfbench::Report& r) {
  std::printf("%-34s %16s %-9s %s\n", "metric", "value", "unit", "samples");
  for (const auto* list : {&r.metrics, &r.details}) {
    for (const perfbench::Metric& m : *list) {
      std::printf("%-34s %16.6g %-9s %zu%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples,
                  list == &r.details ? "  (detail)" : "");
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.valid ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    // JSON has no inf or nan; a non-finite value prints as null.
    char value[32] = "null";
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool calibrate = false;
  std::string commit;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(64);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = std::stoull(next());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (a == "--trace") {
      opt.trace = next() == "1";
    } else if (a == "--bench-dir") {
      opt.bench_dir = next();
    } else if (a == "--out-dir") {
      opt.out_dir = next();
    } else if (a == "--solver-cli") {
      opt.solver_cli = next();
    } else if (a == "--calibrate") {
      calibrate = true;
    } else if (a == "--commit") {
      commit = next();
    } else {
      usage();
      return 64;
    }
  }
  if (opt.bench_dir.empty()) {
    usage();
    return 64;
  }
  try {
    if (calibrate) return perfbench::run_calibrate(opt, commit);

    perfbench::Report report;
    perfbench::Tracer tracer;
    if (opt.workload == "paper-grid" || opt.workload == "pruned-1000") {
      perfbench::run_offline(opt, report, tracer);
    } else if (opt.workload == "jobs-open") {
      perfbench::run_jobs_open(opt, report, tracer);
    } else {
      std::cerr << "unknown workload: " << opt.workload << "\n";
      usage();
      return 64;
    }
    if (opt.trace) {
      std::filesystem::create_directories(opt.out_dir);
      const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed);
      if (!tracer.write_chrome_trace(stem + ".trace.json") ||
          !tracer.write_layer_table(stem + ".layers.json",
                                    all_metrics(report))) {
        std::cerr << "cannot write the trace under " << opt.out_dir << "\n";
        return 1;
      }
      std::printf("trace: %s.trace.json (%zu spans), layer table: "
                  "%s.layers.json\n",
                  stem.c_str(), tracer.size(), stem.c_str());
    }
    print_result(report);
    return report.valid ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
