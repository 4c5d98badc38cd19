#pragma once

// The standard JobRunner of the job plane (DESIGN.md §12): turns one
// submitted JSON body into an engine run and a serialized RunResult.
//
// Body schema (all fields except the instance source optional):
//
//   {
//     "instance":  "R1_1_1",          // generator spec, XOR
//     "solomon":   "<instance text>", // Solomon-format instance
//     "algorithm": "seq",             // seq | sync | async | coll | hybrid
//     "processors": 3,
//     "include_routes": false,        // routes in the result document
//     "params": {                     // TsmoParams subset
//       "evaluations": 20000, "neighborhood": 200, "tenure": 20,
//       "candidate_k": 0, "archive": 20, "restart_after": 100,
//       "seed": 1, "screen": "local", "trace": true
//     }
//   }
//
// Fields over the job caps (job_runner.cpp, DESIGN.md §12) fail the job
// with an error naming the field, before anything is allocated.
//
// The parallel engines always run in deterministic mode here: a job's
// result is a pure function of (instance, params, processors), never of
// execution width, queue interleaving or concurrent load — which is what
// makes the per-job golden-seed fingerprint guard meaningful.  Tracing
// defaults on so trace fingerprints are filled.
//
// This lives in the harness (not src/obs) because it links the whole
// engine stack; obs::JobManager only sees it as an injected callback.

#include <string>

#include "obs/job_manager.hpp"

namespace tsmo {

/// Runs one job body to completion (honoring ctx.cancel as the per-run
/// stop flag, publishing a live convergence recorder through
/// ctx.publish).  Never throws: malformed bodies and engine errors come
/// back as ok=false.  Exposed directly so tests can run the exact same
/// code path in-process and compare fingerprints against service runs.
obs::JobOutcome run_job_body(const std::string& body,
                             const obs::JobContext& ctx);

/// run_job_body as a bindable obs::JobRunner.
obs::JobRunner make_job_runner();

}  // namespace tsmo
