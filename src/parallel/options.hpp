#pragma once

namespace tsmo {

/// How each of the four parallel engines executes.
struct ParallelOptions {
  /// Deterministic replay mode (DESIGN.md §7): the result is a pure
  /// function of (params, processors), not of arrival order.
  bool deterministic = false;
  /// Threads executing deterministic mode; 0 selects the engine's
  /// default, documented where each engine applies it.  Execution width
  /// only — never affects the result.
  int exec_threads = 0;
};

/// Each engine's name for it, as its callers spell it.
using SyncOptions = ParallelOptions;
using AsyncOptions = ParallelOptions;
using MultisearchOptions = ParallelOptions;
using HybridOptions = ParallelOptions;

}  // namespace tsmo
