#include "core/search_state.hpp"

#include <algorithm>

#include "construct/i1_insertion.hpp"
#include "obs/flight_recorder.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

SearchState::SearchState(const Instance& inst, const TsmoParams& params,
                         Rng rng, std::shared_ptr<const CandidateList> cands)
    : inst_(&inst),
      params_(params),
      rng_(rng),
      cands_(cands ? std::move(cands)
                   : make_candidate_list(inst, params.candidate_k)),
      engine_(inst),
      generator_(engine_, params.operator_weights, params.feasibility_screen),
      tabu_(static_cast<std::size_t>(std::max(params.tabu_tenure, 0))),
      nondom_(static_cast<std::size_t>(std::max(params.nondom_capacity, 1))),
      archive_(static_cast<std::size_t>(std::max(params.archive_capacity, 2))),
      trace_(params.trace) {
  params_.clamp();
  if (params_.candidate_k > 0) engine_.set_candidate_list(cands_.get());
}

void SearchState::initialize() {
  initialize_with(construct_i1_random(*inst_, rng_));
}

void SearchState::set_recorder(ConvergenceRecorder* rec, int searcher_id) {
  recorder_ =
      rec ? rec->attach(searcher_id,
                        "searcher " + std::to_string(searcher_id))
          : nullptr;
}

ArchiveAttribution SearchState::attribution_for(const Objectives& obj) const {
  for (const auto& [o, attr] : provenance_) {
    if (o == obj) return attr;
  }
  ArchiveAttribution attr;
  attr.searcher = trace_id_;
  return attr;
}

void SearchState::note_insertion(const Objectives& obj, int op, int worker) {
  ArchiveAttribution attr;
  attr.searcher = trace_id_;
  attr.worker = worker;
  attr.op = op;
  attr.iteration = iterations_;
  bool found = false;
  for (auto& [o, a] : provenance_) {
    if (o == obj) {
      a = attr;
      found = true;
      break;
    }
  }
  if (!found) provenance_.emplace_back(obj, attr);
  // Anytime-front insertions surface as instant events on the ambient
  // trace's timeline (DESIGN.md §13) and tag the flight ring with the
  // request id; both are no-ops outside a traced run.
  TSMO_INSTANT("archive.insert");
  obs::flight_archive_insert(trace_id_, op, iterations_,
                             telemetry::current_trace().trace_id);
  if (recorder_) recorder_->record_insertion(obj, op, worker, iterations_);
}

void SearchState::initialize_with(Solution s) {
  s.evaluate();
  current_ = std::make_shared<const Solution>(std::move(s));
  ++evaluations_;
  const ArchiveOutcome init_outcome =
      archive_.try_add(current_->objectives(), current_);
  observe_archive_outcome(init_outcome);
  if (archive_accepted(init_outcome)) {
    note_insertion(current_->objectives(), -1, -1);
  }
  iterations_ = 0;
  restarts_ = 0;
  last_improvement_ = 0;
  no_improvement_ = false;
  trace_.record_event(RunTrace::kTagInit,
                      static_cast<std::uint64_t>(trace_id_),
                      hash_objectives(current_->objectives()));
}

std::vector<Candidate> SearchState::generate_candidates(int count) {
  TSMO_TIME_SCOPE("search.generate_ns");
  TSMO_PROFILE_FRAME("search.generate");
  std::vector<Candidate> c =
      make_candidates(generator_, current_, count, rng_);
  evaluations_ += static_cast<std::int64_t>(c.size());
  TSMO_COUNT_N("search.candidates", c.size());
  return c;
}

std::optional<std::size_t> SearchState::select(
    const std::vector<Candidate>& candidates,
    const std::vector<std::size_t>& nd) {
  std::vector<std::size_t> admissible;
  admissible.reserve(nd.size());
  for (std::size_t i : nd) {
    const bool tabu = tabu_.is_tabu(candidates[i].creates);
    const bool aspired = params_.use_aspiration && tabu &&
                         archive_.would_improve(candidates[i].obj);
    ++istats_.tabu_checked;
    if (tabu) ++istats_.tabu_hits;
    if (aspired) ++istats_.tabu_aspirations;
    if (!tabu || aspired) admissible.push_back(i);
  }
  if (admissible.empty()) return std::nullopt;
  return admissible[rng_.below(admissible.size())];
}

std::shared_ptr<const Solution> SearchState::restart_pick() {
  const std::size_t total = nondom_.size() + archive_.size();
  if (total == 0) {
    // Both memories exhausted: fall back to a fresh construction.
    ++evaluations_;
    return std::make_shared<const Solution>(
        construct_i1_random(*inst_, rng_));
  }
  const std::size_t k = rng_.below(total);
  if (k < nondom_.size()) {
    return materialize(engine_, nondom_.take_random(rng_).value);  // consumed
  }
  return archive_.sample(rng_).value;  // shared, archive keeps it
}

SearchState::StepOutcome SearchState::step_with_candidates(
    const std::vector<Candidate>& candidates) {
  TSMO_TIME_SCOPE("search.step_ns");
  TSMO_PROFILE_FRAME("search.step");
  TSMO_COUNT("search.steps");
  StepOutcome out;
  // A pending watchdog diversification request routes through the
  // existing stagnation path (opt-in; never set in deterministic runs).
  if (external_restart_.exchange(false, std::memory_order_relaxed)) {
    no_improvement_ = true;
  }
  empty_steps_ = candidates.empty() ? empty_steps_ + 1 : 0;
  // Line 8: s <- Select(N, M_tabulist).  The non-dominated subset also
  // feeds the M_nondom update below.
  const std::vector<std::size_t> nd = nondominated_indices(candidates);
  const std::optional<std::size_t> sel = select(candidates, nd);

  // Lines 9-12: restart from the memories when selection failed or the
  // archive has stagnated.
  if (sel.has_value() && !no_improvement_) {
    const Candidate& c = candidates[*sel];
    current_ = std::make_shared<const Solution>(materialize(engine_, c));
    tabu_.push(c.destroys);
    out.selected = sel;
  } else {
    current_ = restart_pick();
    ++restarts_;
    ++istats_.restarts;
    TSMO_COUNT("search.restarts");
    out.restarted = true;
    no_improvement_ = false;
  }

  // Introspection funnel: every candidate was a proposal; the selected one
  // was accepted (improving is settled after the archive insert below).
  for (const Candidate& c : candidates) {
    ++istats_.proposed[static_cast<std::size_t>(c.move.type)];
  }
  if (out.selected) {
    ++istats_.accepted[static_cast<std::size_t>(
        candidates[*out.selected].move.type)];
  }

  // Line 13: UpdateMemories(s, N) — chosen current into M_archive,
  // remaining non-dominated neighbors into M_nondom (unbuilt: base handle
  // and move).
  const ArchiveOutcome step_outcome =
      archive_.try_add(current_->objectives(), current_);
  observe_archive_outcome(step_outcome);
  const bool improved = archive_accepted(step_outcome);
  if (improved) {
    if (out.selected) {
      const Candidate& c = candidates[*out.selected];
      ++istats_.improving[static_cast<std::size_t>(c.move.type)];
      note_insertion(current_->objectives(),
                     static_cast<int>(c.move.type), c.origin);
    } else {
      note_insertion(current_->objectives(), -1, -1);
    }
  }
  for (std::size_t i : nd) {
    if (out.selected && i == *out.selected) continue;
    const Candidate& c = candidates[i];
    nondom_.try_add(c.obj, LazySolution{c.base, c.move});
  }

  // Adaptive-operator statistics (extension; no-op when disabled).
  if (params_.adaptive_operators) {
    for (const Candidate& c : candidates) {
      ++offered_[static_cast<std::size_t>(c.move.type)];
    }
    if (out.selected) {
      ++selected_[static_cast<std::size_t>(
          candidates[*out.selected].move.type)];
    }
    maybe_adapt_weights();
  }

  // Lines 14-17: stagnation bookkeeping on M_archive.
  ++iterations_;
  if (improved) {
    last_improvement_ = iterations_;
    TSMO_COUNT("search.archive_improved");
  }
  if (iterations_ - last_improvement_ >=
      static_cast<std::int64_t>(params_.restart_after)) {
    no_improvement_ = true;
  }
  out.archive_improved = improved;

  if (trace_.enabled()) {
    std::uint64_t move_hash = 0;
    if (out.selected) {
      const Move& m = candidates[*out.selected].move;
      move_hash = hash_combine(static_cast<std::uint64_t>(m.type),
                               hash_combine(
                                   hash_combine(
                                       static_cast<std::uint64_t>(
                                           static_cast<std::uint32_t>(m.r1)),
                                       static_cast<std::uint64_t>(
                                           static_cast<std::uint32_t>(m.r2))),
                                   hash_combine(
                                       static_cast<std::uint64_t>(
                                           static_cast<std::uint32_t>(m.i)),
                                       static_cast<std::uint64_t>(
                                           static_cast<std::uint32_t>(m.j)))));
    }
    trace_.record_step(trace_id_, iterations_, move_hash, out.restarted,
                       current_->objectives(), archive_.size());
  }

  if (recorder_) {
    recorder_->heartbeat(iterations_);
    if (recorder_->sample_due(iterations_)) {
      recorder_->sample(iterations_, evaluations_, archive_.objectives());
    }
  }
  // Introspection snapshot gauges + optional live publication.  Pure
  // observation of already-computed state; no RNG, no decision input.
  ++istats_.steps;
  istats_.tabu_occupancy_now = tabu_.size();
  istats_.tabu_tenure = tabu_.tenure();
  istats_.archive_size_now = archive_.size();
  if (live_introspect_ != nullptr) {
    live_introspect_->publish(introspect_slot_, istats_);
  }

  if (trace_.enabled()) obs::flight_fingerprint(trace_.fingerprint());
  return out;
}

void SearchState::observe_archive_outcome(ArchiveOutcome o) noexcept {
  switch (o) {
    case ArchiveOutcome::Added:
      ++istats_.archive_inserts;
      break;
    case ArchiveOutcome::AddedEvicted:
      ++istats_.archive_inserts;
      ++istats_.archive_evictions;
      break;
    case ArchiveOutcome::Dominated:
      ++istats_.archive_dominated_rejects;
      break;
    case ArchiveOutcome::Duplicate:
      ++istats_.archive_duplicate_rejects;
      break;
    case ArchiveOutcome::RejectedCrowded:
      ++istats_.archive_crowded_rejects;
      break;
  }
}

void SearchState::maybe_adapt_weights() {
  if ((iterations_ + 1) % std::max(params_.adapt_interval, 1) != 0) {
    return;
  }
  std::array<double, kNumMoveTypes> weights{};
  for (int t = 0; t < kNumMoveTypes; ++t) {
    const auto i = static_cast<std::size_t>(t);
    // Success ratio with additive smoothing; floor keeps every operator
    // alive (the selection signal is noisy at MO random selection).
    weights[i] = 0.2 + static_cast<double>(selected_[i] + 1) /
                           static_cast<double>(offered_[i] + 10);
    // Exponential forgetting so the weights track the current phase.
    selected_[i] /= 2;
    offered_[i] /= 2;
  }
  generator_ = NeighborhoodGenerator(engine_, weights,
                                     params_.feasibility_screen);
}

bool SearchState::receive(std::shared_ptr<const Solution> s) {
  const Objectives obj = s->objectives();
  const bool stored = nondom_.try_add(obj, LazySolution{std::move(s), {}});
  if (stored) {
    trace_.record_event(RunTrace::kTagReceive,
                        static_cast<std::uint64_t>(trace_id_),
                        hash_objectives(obj));
  }
  return stored;
}

}  // namespace tsmo
