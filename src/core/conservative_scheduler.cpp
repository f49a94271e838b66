#include "core/conservative_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"

namespace psched {

ConservativeScheduler::ConservativeScheduler(PriorityKind priority) : priority_(priority) {}

std::string ConservativeScheduler::name() const {
  return priority_ == PriorityKind::Fcfs ? "cons.fcfs" : "cons";
}

void ConservativeScheduler::on_submit(JobId id) {
  Scheduler::on_submit(id);
  reservations_.emplace(id, kNoTime);
  pending_arrivals_.push_back(id);
}

void ConservativeScheduler::on_complete(JobId id) { pending_completions_.push_back(id); }

void ConservativeScheduler::seed_running_usage(Time now) {
  if (!plan_ || plan_->capacity() != ctx().total_nodes())
    plan_.emplace(ctx().total_nodes(), now);
  else
    plan_->reset(now);
  planned_end_.clear();
  plan_->begin_batch();
  for (const RunningView& r : ctx().running()) {
    const Time end = assumed_running_end(r, now);
    plan_->add_usage(now, end, r.nodes);
    planned_end_.emplace(r.id, end);
  }
  plan_->end_batch();
}

void ConservativeScheduler::compression_pass(Time now) {
  Profile& plan = *plan_;
  bool moved = false;
  for (const JobId id : waiting_by_priority(priority_)) {
    const Job& job = ctx().job(id);
    const Time current = reservations_.at(id);
    plan.remove_usage(current, current + job.wcl, job.nodes);
    const Time improved = plan.earliest_fit(now, job.wcl, job.nodes);
    const Time chosen = improved < current ? improved : current;
    plan.add_usage(chosen, chosen + job.wcl, job.nodes);
    if (chosen != current) moved = true;
    reservations_[id] = chosen;
  }
  compress_active_ = moved;
  capacity_freed_ = false;
}

void ConservativeScheduler::full_replan(Time now) {
  obs::count(obs::Counter::kSchedReplanFull);
  seed_running_usage(now);
  Profile& plan = *plan_;

  // Pass 1: re-seat stored reservations in stored-start order; a slot only
  // moves later if an over-running job broke it. Brand-new arrivals (kNoTime)
  // are seated last so they cannot delay anyone.
  std::vector<JobId> seat_order = waiting();
  std::sort(seat_order.begin(), seat_order.end(), [&](JobId a, JobId b) {
    const Time ra = reservations_.at(a);
    const Time rb = reservations_.at(b);
    const Time ka = ra == kNoTime ? std::numeric_limits<Time>::max() : ra;
    const Time kb = rb == kNoTime ? std::numeric_limits<Time>::max() : rb;
    if (ka != kb) return ka < kb;
    return a < b;
  });
  for (const JobId id : seat_order) {
    const Job& job = ctx().job(id);
    const Time stored = reservations_.at(id);
    const Time from = stored == kNoTime ? now : std::max(stored, now);
    const Time start = plan.earliest_fit(from, job.wcl, job.nodes);
    plan.add_usage(start, start + job.wcl, job.nodes);
    reservations_[id] = start;
  }

  // Pass 2: improvement attempts in priority order — higher-priority jobs get
  // the first chance at space freed by early completions. A job keeps its
  // slot unless the found one is strictly earlier.
  compression_pass(now);

  pending_arrivals_.clear();
  pending_completions_.clear();
  capacity_freed_ = false;
}

bool ConservativeScheduler::incremental_replan(Time now) {
  // Counts attempts: a false return falls through to full_replan, so
  // full + incremental together bound the replan work actually done.
  obs::count(obs::Counter::kSchedReplanIncremental);
  Profile& plan = *plan_;

  // A completion whose planned usage extends past now frees future capacity:
  // return the usage and let the compression pass move jobs onto it.
  for (const JobId id : pending_completions_) {
    const auto it = planned_end_.find(id);
    if (it == planned_end_.end()) return false;  // job unknown to the plan
    if (it->second > now) {
      plan.remove_usage(now, it->second, ctx().job(id).nodes);
      capacity_freed_ = true;
    }
    planned_end_.erase(it);
  }
  pending_completions_.clear();

  // Existing reservations are untouched by arrivals (the naive pass 1
  // re-seats them at exactly their stored slots), so only the new jobs need
  // seating — last, in record-id order, matching the naive tie-break for
  // kNoTime entries.
  std::sort(pending_arrivals_.begin(), pending_arrivals_.end());
  for (const JobId id : pending_arrivals_) {
    const Job& job = ctx().job(id);
    const Time start = plan.earliest_fit(now, job.wcl, job.nodes);
    plan.add_usage(start, start + job.wcl, job.nodes);
    reservations_[id] = start;
  }
  pending_arrivals_.clear();

  // The compression pass is a provable no-op unless capacity was freed or
  // the previous pass still moved reservations (cascades may continue).
  if (capacity_freed_ || compress_active_) compression_pass(now);
  return true;
}

void ConservativeScheduler::collect_starts(std::vector<JobId>& starts) {
  wakeup_.reset();
  const Time now = ctx().now();

  // While any running job over-runs its estimate, its assumed horizon moves
  // with now and can push reservations around — replan from scratch exactly
  // like the naive algorithm, and keep doing so until the over-run clears.
  bool overrun = false;
  for (const RunningView& r : ctx().running()) {
    if (r.est_end <= now) {
      overrun = true;
      break;
    }
  }

  if (!plan_valid_ || overrun) {
    full_replan(now);
  } else {
    plan_->advance_origin(now);
    if (!incremental_replan(now)) full_replan(now);
  }
  plan_valid_ = !overrun;

  // Launch everything whose reservation came due, highest priority first.
  // The queue leaves the loop untouched; dequeue() runs after it.
  NodeCount free = ctx().free_nodes();
  std::optional<Time> wake;
  for (const JobId id : waiting_by_priority(priority_)) {
    const Time start = reservations_.at(id);
    if (start <= now) {
      const Job& job = ctx().job(id);
      if (job.nodes > free)
        throw std::logic_error("ConservativeScheduler: reservation due but nodes not free");
      starts.push_back(id);
      free -= job.nodes;
      reservations_.erase(id);
      if (start == now) {
        // The launched job's reservation usage [now, now + wcl) stays in the
        // plan as its running usage (est_end == now + wcl).
        planned_end_.emplace(id, now + job.wcl);
      } else {
        plan_valid_ = false;  // stale reservation interval; rebuild next event
      }
    } else if (!wake || start < *wake) {
      wake = start;
    }
  }
  dequeue(starts);
  wakeup_ = wake;
}

std::optional<Time> ConservativeScheduler::next_wakeup() const { return wakeup_; }

}  // namespace psched
