#include "harness/job_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/sequential_tsmo.hpp"
#include "harness/report.hpp"
#include "moo/anytime.hpp"
#include "moo/introspect.hpp"
#include "parallel/async_tsmo.hpp"
#include "parallel/hybrid_tsmo.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "util/json.hpp"
#include "vrptw/generator.hpp"
#include "vrptw/solomon_io.hpp"

namespace tsmo {

namespace {

/// Resource caps of one job, checked before any instance, distance matrix
/// or thread exists.  A body over a cap fails the job with an error naming
/// the field.  Every cap is far above the paper's settings (P <= 12,
/// neighborhood 200, tenure 20, archive 20, restart 100).
constexpr int kMaxJobCustomers = 1000;  ///< largest Homberger instances
constexpr int kMaxJobVehicles = kMaxJobCustomers;  ///< one route each
constexpr int kMaxJobProcessors = 64;

/// Integer fields of "params" and their caps.  Each must lie in [0, max];
/// TsmoParams::clamp then raises values below its floors as before.
struct IntParam {
  const char* field;
  int TsmoParams::*member;
  int max;
};
constexpr IntParam kIntParams[] = {
    {"neighborhood", &TsmoParams::neighborhood_size, 10000},
    {"tenure", &TsmoParams::tabu_tenure, 10000},
    {"candidate_k", &TsmoParams::candidate_k, kMaxJobCustomers},
    {"archive", &TsmoParams::archive_capacity, 1000},
    {"restart_after", &TsmoParams::restart_after, 1000000},
    {"profile_hz", &TsmoParams::profile_hz, 1000},
};

/// The integer at `v`, or an error naming `field` when outside [0, max].
int bounded_int(const JsonValue& v, const std::string& field, int fallback,
                int max) {
  const std::int64_t x = v.as_int64(fallback);
  if (x < 0 || x > max) {
    throw std::invalid_argument(field + ": " + std::to_string(x) +
                                " is outside [0, " + std::to_string(max) +
                                "]");
  }
  return static_cast<int>(x);
}

/// Applies the "params" object onto paper-default TsmoParams.
TsmoParams parse_params(const JsonValue* node) {
  TsmoParams p;
  p.trace = true;  // fingerprints are part of the job contract
  if (node == nullptr || !node->is_object()) return p;
  if (const JsonValue* v = node->find("evaluations")) {
    p.max_evaluations = v->as_int64(p.max_evaluations);
  }
  for (const IntParam& f : kIntParams) {
    if (const JsonValue* v = node->find(f.field)) {
      p.*f.member = bounded_int(*v, std::string("params.") + f.field,
                                p.*f.member, f.max);
    }
  }
  if (const JsonValue* v = node->find("seed")) {
    p.seed = static_cast<std::uint64_t>(v->as_int64(1));
  }
  if (const JsonValue* v = node->find("trace")) {
    p.trace = v->as_bool(true);
  }
  if (const JsonValue* v = node->find("telemetry")) {
    p.telemetry = v->as_bool(p.telemetry);
  }
  if (const JsonValue* v = node->find("introspect")) {
    p.introspect = v->as_bool(p.introspect);
  }
  if (const JsonValue* v = node->find("screen"); v && v->is_string()) {
    const std::string& s = v->as_string();
    if (s == "capacity") {
      p.feasibility_screen = FeasibilityScreen::CapacityOnly;
    } else if (s == "exact") {
      p.feasibility_screen = FeasibilityScreen::Exact;
    } else if (s == "local") {
      p.feasibility_screen = FeasibilityScreen::Local;
    } else {
      throw std::invalid_argument("unknown screen: " + s);
    }
  }
  p.clamp();
  return p;
}

RunResult run_engine(const std::string& algorithm, const Instance& inst,
                     const TsmoParams& params, int processors,
                     ConvergenceRecorder* recorder,
                     LiveIntrospect* introspect) {
  if (algorithm == "seq") {
    SequentialTsmo seq(inst, params);
    seq.set_introspect(introspect);
    return seq.run();
  }
  if (algorithm == "sync") {
    SyncOptions so;
    so.deterministic = true;
    so.recorder = recorder;
    so.introspect = introspect;
    return SyncTsmo(inst, params, processors, so).run();
  }
  if (algorithm == "async") {
    AsyncOptions ao;
    ao.deterministic = true;
    ao.recorder = recorder;
    ao.introspect = introspect;
    return AsyncTsmo(inst, params, processors, ao).run();
  }
  if (algorithm == "coll") {
    MultisearchOptions mo;
    mo.deterministic = true;
    mo.recorder = recorder;
    mo.introspect = introspect;
    MultisearchResult r = MultisearchTsmo(inst, params, processors, mo).run();
    return std::move(r.merged);
  }
  if (algorithm == "hybrid") {
    HybridOptions ho;
    ho.deterministic = true;
    ho.recorder = recorder;
    ho.introspect = introspect;
    const int per_island = std::max(2, processors / 2);
    MultisearchResult r = HybridTsmo(inst, params, 2, per_island, ho).run();
    return std::move(r.merged);
  }
  throw std::invalid_argument(
      "unknown algorithm: " + algorithm +
      " (job plane runs: seq | sync | async | coll | hybrid)");
}

}  // namespace

obs::JobOutcome run_job_body(const std::string& body,
                             const obs::JobContext& ctx) {
  obs::JobOutcome out;
  try {
    std::string parse_error;
    const std::unique_ptr<JsonValue> doc = json_parse(body, &parse_error);
    if (!doc || !doc->is_object()) {
      out.error = "invalid job body: " + parse_error;
      return out;
    }

    // Every bounded field is read before the instance is built.
    TsmoParams params = parse_params(doc->find("params"));
    params.stop = ctx.cancel;
    // Causal trace plumbing (DESIGN.md §13): engine and worker spans
    // parent under the manager's "job.run" span.  Pure observability —
    // engines never branch on these ids.
    params.trace_id = ctx.trace.trace_id;
    params.trace_parent_span = ctx.trace.span_id;

    std::string algorithm = "seq";
    if (const JsonValue* a = doc->find("algorithm");
        a != nullptr && a->is_string()) {
      algorithm = a->as_string();
    }
    int processors = 3;
    if (const JsonValue* p = doc->find("processors")) {
      processors = std::max(
          1, bounded_int(*p, "processors", processors, kMaxJobProcessors));
    }
    bool include_routes = false;
    if (const JsonValue* r = doc->find("include_routes")) {
      include_routes = r->as_bool(false);
    }

    Instance inst = [&] {
      if (const JsonValue* s = doc->find("solomon");
          s != nullptr && s->is_string()) {
        std::istringstream is(s->as_string());
        try {
          return read_solomon(is, {kMaxJobCustomers, kMaxJobVehicles});
        } catch (const std::exception& e) {
          throw std::invalid_argument(std::string("solomon: ") + e.what());
        }
      }
      const JsonValue* name = doc->find("instance");
      if (name == nullptr || !name->is_string()) {
        throw std::invalid_argument(
            "job needs an \"instance\" or \"solomon\" string field");
      }
      const GeneratorConfig config = parse_instance_name(name->as_string());
      if (config.num_customers > kMaxJobCustomers) {
        throw std::invalid_argument(
            "instance: " + name->as_string() + " has " +
            std::to_string(config.num_customers) +
            " customers, above the job cap of " +
            std::to_string(kMaxJobCustomers));
      }
      return generate_instance(config);
    }();

    // Per-job recorder: the live anytime front GET /jobs/<id> serves.
    // Observation only — fingerprints are identical with or without it.
    ConvergenceConfig cc;
    cc.reference = convergence_reference(inst);
    cc.sample_every_iters = params.convergence_sample_iters;
    cc.sample_every_ms = params.convergence_sample_ms;
    ConvergenceRecorder recorder(cc);
    // Per-job introspection hub (DESIGN.md §14) when the body opted in;
    // shared by every searcher of this job and served live on
    // GET /jobs/<id>/introspect.
    std::unique_ptr<LiveIntrospect> introspect;
    if (params.introspect) {
      char label[24];
      std::snprintf(label, sizeof(label), "job-%016llx",
                    static_cast<unsigned long long>(ctx.trace.trace_id));
      introspect = std::make_unique<LiveIntrospect>(label);
    }
    // Declared after the recorder/hub so it retracts the published
    // pointers *before* they die — on every exit path, including engine
    // exceptions unwinding past this scope.
    struct PublishGuard {
      const obs::JobContext* ctx;
      ~PublishGuard() {
        if (ctx->publish) ctx->publish(nullptr);
        if (ctx->publish_introspect) ctx->publish_introspect(nullptr);
      }
    } guard{&ctx};
    if (ctx.publish) ctx.publish(&recorder);
    if (introspect != nullptr && ctx.publish_introspect) {
      ctx.publish_introspect(introspect.get());
    }

    RunResult result = run_engine(algorithm, inst, params, processors,
                                  &recorder, introspect.get());

    recorder.finalize(result.front);
    if (introspect != nullptr) {
      out.introspect_json = introspect->to_json();
      out.introspect_json += '\n';
    }

    std::ostringstream os;
    write_run_json(os, inst, result, include_routes);
    out.result_json = os.str();
    out.algorithm = result.algorithm;
    out.instance = inst.name();
    out.trace_fingerprint = result.trace_fingerprint;
    out.archive_fingerprint = result.archive_fingerprint;
    out.front_size = result.front.size();
    out.evaluations = result.evaluations;
    out.wall_seconds = result.wall_seconds;
    out.stopped_early = result.stopped_early;
    // SLO feed: insertion clocks are relative to recorder construction,
    // which brackets the whole engine run, so the first event's t_ns is
    // the runner-side submit-to-first-front latency.
    if (!recorder.insertions().empty()) {
      out.first_front_ns = recorder.insertions().front().t_ns;
    }
    out.stalls_flagged =
        static_cast<std::uint64_t>(recorder.stalls_flagged());
    out.ok = true;
  } catch (const std::exception& e) {
    out = obs::JobOutcome{};
    out.error = e.what();
  }
  return out;
}

obs::JobRunner make_job_runner() {
  return [](const std::string& body, const obs::JobContext& ctx) {
    return run_job_body(body, ctx);
  };
}

}  // namespace tsmo
