#include "parallel/worker_team.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "core/sequential_tsmo.hpp"
#include "moo/anytime.hpp"
#include "operators/neighborhood.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace tsmo {

namespace {

/// Decision function c3: how long the master keeps waiting for worker
/// results before it proceeds with the partial pool.
constexpr double kWaitTooLongMs = 2.0;

}  // namespace

WorkerTeam::WorkerTeam(const Instance& inst, int num_workers,
                       std::uint64_t seed,
                       std::shared_ptr<const CandidateList> cands)
    : inst_(&inst),
      cands_(std::move(cands)),
      trace_ctx_(telemetry::current_trace()) {
  requests_.enable_telemetry("gen_requests");
  results_.enable_telemetry("gen_results");
  Rng master(seed ^ 0x5eedF00dULL);
  const int n = std::max(1, num_workers);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back(
        [this, i, rng = master.split()]() mutable { worker_loop(i, rng); });
  }
}

WorkerTeam::~WorkerTeam() {
  requests_.close();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  results_.close();
}

void WorkerTeam::enable_heartbeats(ConvergenceRecorder& recorder,
                                   const std::string& prefix) {
  heartbeat_slots_.clear();
  heartbeat_slots_.reserve(threads_.size());
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    heartbeat_slots_.push_back(
        recorder.register_worker(prefix + " " + std::to_string(i)));
  }
  recorder_.store(&recorder, std::memory_order_release);
}

void WorkerTeam::dispatch(int /*worker*/, std::shared_ptr<const Solution> base,
                          int count) {
  submit(GenRequest{std::move(base), count});
}

void WorkerTeam::collect_arrived(const Take& take) {
  while (auto result = try_collect()) take(*result);
}

void WorkerTeam::wait(const std::function<bool()>& decided,
                      const Take& take) {
  TSMO_SPAN_TIMED("async.wait", "async.wait_ns");
  TSMO_PROFILE_FRAME("channel.wait");
  const Timer wait_timer;
  while (!decided() && wait_timer.elapsed_ms() < kWaitTooLongMs) {
    if (auto result = collect_for(std::chrono::microseconds(200))) {
      take(*result);
      collect_arrived(take);
    }
  }
}

void WorkerTeam::barrier(int chunks, const Take& take) {
  TSMO_SPAN_TIMED("sync.barrier", "sync.barrier_wait_ns");
  TSMO_PROFILE_FRAME("channel.wait");
  for (int c = 0; c < chunks; ++c) {
    auto result = collect();
    if (!result) break;  // team shut down (cannot happen mid-run)
    take(*result);
  }
}

void SeededTeam::dispatch(int /*worker*/, std::shared_ptr<const Solution> base,
                          int count) {
  threads_->submit(
      GenRequest{std::move(base), count, ++ticket_, schedule_.next(), true});
  ++inflight_;
}

void SeededTeam::wait(const std::function<bool()>& /*decided*/,
                      const Take& take) {
  TSMO_SPAN_TIMED("async.wait", "async.wait_ns");
  TSMO_PROFILE_FRAME("channel.wait");
  hand_back(take);
}

void SeededTeam::barrier(int /*chunks*/, const Take& take) {
  TSMO_SPAN_TIMED("sync.barrier", "sync.barrier_wait_ns");
  TSMO_PROFILE_FRAME("channel.wait");
  hand_back(take);
}

void SeededTeam::hand_back(const Take& take) {
  std::vector<GenResult> results;
  for (; inflight_ > 0; --inflight_) {
    auto result = threads_->collect();
    if (!result) break;  // team shut down (cannot happen mid-run)
    results.push_back(std::move(*result));
  }
  std::sort(results.begin(), results.end(),
            [](const GenResult& a, const GenResult& b) {
              return a.ticket < b.ticket;
            });
  for (GenResult& r : results) take(r);
}

RunResult MasterWorkerTsmo::run_master(
    const char* span, bool stall_restart,
    const std::function<void(SearchState&, WorkerTeam&)>& search) const {
  const std::string engine = span + 4;  // the name after "run."
  const int workers = options_.deterministic && options_.exec_threads > 0
                          ? options_.exec_threads
                          : procs_ - 1;
  RunScope scope(span, params_, ctx_, 1, workers);
  TSMO_TELEMETRY_ONLY(if (telemetry::enabled()) {
    telemetry::Registry::instance().set_thread_label(engine + " master");
  })
  Timer timer;
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  SearchState state(*inst_, params_, Rng(params_.seed), cands);
  WorkerTeam team(*inst_, workers, params_.seed, cands);
  if (ctx_.recorder) team.enable_heartbeats(*ctx_.recorder, engine + " worker");
  scope.attach(state);
  if (stall_restart) scope.restart_on_stall(state);
  state.initialize();
  search(state, team);
  // Clears the stall action: the watchdog can no longer touch `state`.
  scope.finish(state.iterations());
  return collect_result(state, engine, timer.elapsed_seconds());
}

void WorkerTeam::worker_loop(int id, Rng rng) {
  // Worker threads inherit the team's trace context so their spans carry
  // the request's trace id and parent under the engine's run span.
  telemetry::TraceScope trace_scope(trace_ctx_);
  MoveEngine engine(*inst_);
  if (cands_) engine.set_candidate_list(cands_.get());
  // Workers keep the default equal operator weights and local screen (as
  // before); only the sampling mode is configurable.
  NeighborhoodGenerator generator(engine);
  std::int64_t chunks_done = 0;
#if TSMO_TELEMETRY_ENABLED
  // Per-worker utilization gauges use dynamic names ("worker.3.busy_ns"),
  // so they go through the Registry API instead of the literal-name macros.
  // gauge_add keeps them cumulative across teams sharing a worker id.
  telemetry::GaugeId busy_gauge{};
  telemetry::GaugeId idle_gauge{};
  bool registered = false;
#endif
  for (;;) {
#if TSMO_TELEMETRY_ENABLED
    const bool tel = telemetry::enabled();
    if (tel && !registered) {
      auto& reg = telemetry::Registry::instance();
      const std::string prefix = "worker." + std::to_string(id);
      busy_gauge = reg.gauge(prefix + ".busy_ns");
      idle_gauge = reg.gauge(prefix + ".idle_ns");
      reg.set_thread_label("worker " + std::to_string(id));
      registered = true;
    }
    const std::uint64_t wait_start = tel ? now_ns() : 0;
#endif
    auto request = [this] {
      TSMO_PROFILE_FRAME("channel.wait");
      return requests_.pop();
    }();
#if TSMO_TELEMETRY_ENABLED
    const std::uint64_t work_start = tel ? now_ns() : 0;
    if (tel) {
      auto& reg = telemetry::Registry::instance();
      reg.gauge_add(idle_gauge,
                    static_cast<std::int64_t>(work_start - wait_start));
      TSMO_COUNT_N("workers.idle_ns", work_start - wait_start);
    }
#endif
    if (!request) break;
    GenResult result;
    result.ticket = request->ticket;
    result.worker_id = id;
    {
      TSMO_PROFILE_FRAME("worker.chunk");
      if (request->seeded) {
        Rng task_rng(request->seed);
        result.candidates = make_candidates(generator, request->base,
                                            request->count, task_rng);
      } else {
        result.candidates = make_candidates(generator, request->base,
                                            request->count, rng);
      }
    }
    // Attribution: candidates remember which worker evaluated them.
    for (Candidate& c : result.candidates) {
      c.origin = static_cast<std::int16_t>(id);
    }
    if (ConvergenceRecorder* rec =
            recorder_.load(std::memory_order_acquire)) {
      ++chunks_done;
      rec->worker_heartbeat(heartbeat_slots_[static_cast<std::size_t>(id)],
                            chunks_done);
    }
#if TSMO_TELEMETRY_ENABLED
    if (tel) {
      const std::uint64_t work_end = now_ns();
      auto& reg = telemetry::Registry::instance();
      reg.gauge_add(busy_gauge,
                    static_cast<std::int64_t>(work_end - work_start));
      reg.record_span("worker.chunk", work_start, work_end - work_start,
                      telemetry::current_trace());
      TSMO_COUNT("worker.chunks");
      TSMO_COUNT_N("workers.busy_ns", work_end - work_start);
    }
#endif
    results_.push(std::move(result));
  }
}

}  // namespace tsmo
