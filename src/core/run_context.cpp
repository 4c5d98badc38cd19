#include "core/run_context.hpp"

#include "core/search_state.hpp"
#include "moo/anytime.hpp"
#include "obs/flight_recorder.hpp"

namespace tsmo {

RunScope::RunScope(const char* span, const TsmoParams& params,
                   const RunContext& ctx, int searchers, int workers)
    : engine_(span + 4),  // skip "run."
      ctx_(ctx),
      trace_(ctx.trace) {
  if (params.telemetry) telemetry::set_enabled(true);
  if (ctx.profile_hz > 0) prof::start(ctx.profile_hz);
#if TSMO_TELEMETRY_ENABLED
  span_.emplace(span);
  if (prof::enabled()) frame_.emplace(prof::register_frame_name(span));
#endif
  obs::flight_engine_start(engine_, searchers, workers, ctx_.trace.trace_id);
  if (ctx_.recorder == nullptr) return;
  ctx_.recorder->engine_started(engine_, searchers, workers);
  if (ctx_.stall_restart) {
    // Runs under the recorder lock; finish() clears it before the signed-in
    // states die, so it never sees a dead state.
    ctx_.recorder->set_stall_action([this](int id) {
      std::lock_guard<std::mutex> lock(stall_mutex_);
      const auto i = static_cast<std::size_t>(id);
      if (id >= 0 && i < stall_states_.size() && stall_states_[i]) {
        stall_states_[i]->request_restart();
      }
    });
    stall_armed_ = true;
  }
}

void RunScope::attach(SearchState& state, int searcher) const {
  if (ctx_.recorder != nullptr) state.set_recorder(ctx_.recorder, searcher);
  if (ctx_.introspect != nullptr) state.set_introspect(ctx_.introspect);
  state.set_stop_flag(ctx_.stop);
}

void RunScope::restart_on_stall(SearchState& state, int searcher) {
  if (!stall_armed_) return;
  std::lock_guard<std::mutex> lock(stall_mutex_);
  const auto i = static_cast<std::size_t>(searcher);
  if (stall_states_.size() <= i) stall_states_.resize(i + 1, nullptr);
  stall_states_[i] = &state;
}

void RunScope::forget_stall(int searcher) {
  if (!stall_armed_) return;
  std::lock_guard<std::mutex> lock(stall_mutex_);
  const auto i = static_cast<std::size_t>(searcher);
  if (i < stall_states_.size()) stall_states_[i] = nullptr;
}

void RunScope::finish(std::int64_t iterations) {
  if (stall_armed_) {
    // Blocks out any in-flight watchdog invocation: no signed-in state is
    // touched after this line.
    ctx_.recorder->set_stall_action(nullptr);
    stall_armed_ = false;
  }
  obs::flight_engine_finish(engine_, iterations, ctx_.trace.trace_id);
  if (ctx_.recorder != nullptr) ctx_.recorder->engine_finished(iterations);
}

}  // namespace tsmo
