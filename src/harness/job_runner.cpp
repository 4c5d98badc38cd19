#include "harness/job_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

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
/// Evaluations per job: ten thousand paper budgets (100k each).
constexpr std::int64_t kMaxJobEvaluations = 1000000000;

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
};
constexpr int kMaxJobProfileHz = 1000;

/// The integer at `v`, or an error naming `field` when outside [0, max].
std::int64_t bounded_int(const JsonValue& v, const std::string& field,
                         std::int64_t fallback, std::int64_t max) {
  const std::int64_t x = v.as_int64(fallback);
  if (x < 0 || x > max) {
    throw std::invalid_argument(field + ": " + std::to_string(x) +
                                " is outside [0, " + std::to_string(max) +
                                "]");
  }
  return x;
}

/// The body's "params" object: paper-default TsmoParams plus the two
/// observation fields that belong to the run's context.
struct JobParams {
  TsmoParams search;
  int profile_hz = 0;
  bool introspect = false;
};

/// Applies the "params" object onto paper-default TsmoParams.
JobParams parse_params(const JsonValue* node) {
  JobParams jp;
  TsmoParams& p = jp.search;
  p.trace = true;  // fingerprints are part of the job contract
  if (node == nullptr || !node->is_object()) return jp;
  if (const JsonValue* v = node->find("evaluations")) {
    p.max_evaluations = bounded_int(*v, "params.evaluations",
                                    p.max_evaluations, kMaxJobEvaluations);
  }
  for (const IntParam& f : kIntParams) {
    if (const JsonValue* v = node->find(f.field)) {
      p.*f.member = static_cast<int>(bounded_int(
          *v, std::string("params.") + f.field, p.*f.member, f.max));
    }
  }
  if (const JsonValue* v = node->find("profile_hz")) {
    jp.profile_hz = static_cast<int>(bounded_int(
        *v, "params.profile_hz", jp.profile_hz, kMaxJobProfileHz));
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
    jp.introspect = v->as_bool(jp.introspect);
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
  return jp;
}

using EngineRun = RunResult (*)(const Instance&, const TsmoParams&,
                                int processors, const RunContext&);

/// The engines the job plane runs, each in its deterministic mode.
struct JobEngine {
  const char* name;
  EngineRun run;
};
constexpr JobEngine kJobEngines[] = {
    {"seq",
     [](const Instance& inst, const TsmoParams& params, int,
        const RunContext& ctx) {
       return SequentialTsmo(inst, params, ctx).run();
     }},
    {"sync",
     [](const Instance& inst, const TsmoParams& params, int processors,
        const RunContext& ctx) {
       SyncOptions so;
       so.deterministic = true;
       return SyncTsmo(inst, params, processors, so, ctx).run();
     }},
    {"async",
     [](const Instance& inst, const TsmoParams& params, int processors,
        const RunContext& ctx) {
       AsyncOptions ao;
       ao.deterministic = true;
       return AsyncTsmo(inst, params, processors, ao, ctx).run();
     }},
    {"coll",
     [](const Instance& inst, const TsmoParams& params, int processors,
        const RunContext& ctx) {
       MultisearchOptions mo;
       mo.deterministic = true;
       return MultisearchTsmo(inst, params, processors, mo, ctx)
           .run()
           .merged;
     }},
    {"hybrid",
     [](const Instance& inst, const TsmoParams& params, int processors,
        const RunContext& ctx) {
       HybridOptions ho;
       ho.deterministic = true;
       const int per_island = std::max(2, processors / 2);
       return HybridTsmo(inst, params, 2, per_island, ho, ctx).run().merged;
     }},
};

/// The engine named `algorithm`; throws naming it when there is none.
EngineRun find_engine(const std::string& algorithm) {
  std::string names;
  for (const JobEngine& e : kJobEngines) {
    if (algorithm == e.name) return e.run;
    names += names.empty() ? e.name : std::string(" | ") + e.name;
  }
  throw std::invalid_argument("unknown algorithm: " + algorithm +
                              " (job plane runs: " + names + ")");
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
    const JobParams job = parse_params(doc->find("params"));
    const TsmoParams& params = job.search;

    std::string algorithm = "seq";
    if (const JsonValue* a = doc->find("algorithm");
        a != nullptr && a->is_string()) {
      algorithm = a->as_string();
    }
    const EngineRun run_engine = find_engine(algorithm);
    int processors = 3;
    if (const JsonValue* p = doc->find("processors")) {
      processors = static_cast<int>(std::max<std::int64_t>(
          1, bounded_int(*p, "processors", processors, kMaxJobProcessors)));
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
    ConvergenceRecorder recorder(cc);
    // Per-job introspection hub (DESIGN.md §14) when the body opted in;
    // shared by every searcher of this job and served live on
    // GET /jobs/<id>/introspect.
    std::unique_ptr<LiveIntrospect> introspect;
    if (job.introspect) {
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

    // The job's run context: its own cancel flag, the causal trace under
    // the manager's "job.run" span (DESIGN.md §13), the recorder and hub.
    RunContext run;
    run.stop = ctx.cancel;
    run.trace = ctx.trace;
    run.profile_hz = job.profile_hz;
    run.recorder = &recorder;
    run.introspect = introspect.get();
    RunResult result = run_engine(inst, params, processors, run);

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
    // Insertion clocks are relative to recorder construction, which
    // brackets the whole engine run, so the first event's t_ns is the
    // runner-side submit-to-first-front latency.
    if (!recorder.insertions().empty()) {
      out.first_front_ns = recorder.insertions().front().t_ns;
    }
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
