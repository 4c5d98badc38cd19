#pragma once

// Build provenance (DESIGN.md §10): git sha, compiler, flags and build
// type captured at configure time (src/obs/CMakeLists.txt passes them as
// compile definitions).  All fields are string literals with static
// storage so the flight recorder's crash handler can read them without
// allocating.  Served at /buildinfo and stamped into every RunResult JSON
// so bench_results artifacts are traceable to the binary that made them.

#include <cstdint>
#include <ostream>

namespace tsmo::obs {

struct BuildInfo {
  const char* git_sha;     ///< short sha of HEAD at configure time
  const char* compiler;    ///< "GNU 13.2.0" style id + version
  const char* flags;       ///< CXX flags incl. the build-type flags
  const char* build_type;  ///< CMAKE_BUILD_TYPE
};

/// The compiled-in build record.
const BuildInfo& build_info() noexcept;

/// Wall-clock time this process loaded [unix ms]; captured once at static
/// init so /buildinfo and /healthz agree on when the server last
/// restarted.
std::int64_t process_start_unix_ms() noexcept;

/// Seconds since process load (steady clock, immune to wall adjustments).
double process_uptime_s() noexcept;

/// Renders the record as a small JSON object ({"git_sha": ..., ...})
/// plus start_time_unix_ms / uptime_s.
void write_buildinfo_json(std::ostream& os);

}  // namespace tsmo::obs
