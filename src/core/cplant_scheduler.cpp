#include "core/cplant_scheduler.hpp"

#include <algorithm>

namespace psched {

namespace {

/// How often barred jobs are re-tested for starvation-queue entry when no
/// other event fires.
constexpr Time kHeavyRecheckInterval = hours(1);

}  // namespace

CplantScheduler::CplantScheduler(CplantConfig config) : config_(config) {}

std::string CplantScheduler::name() const {
  if (!starvation_enabled()) return "noguarantee";
  std::string n = "cplant" + std::to_string(config_.starvation_delay / hours(1));
  n += config_.bar_heavy_users ? ".fair" : ".all";
  return n;
}

void CplantScheduler::promote_starving_jobs() {
  if (!starvation_enabled()) return;
  const Time now = ctx().now();
  // A user is heavy above heavy_user_factor x the mean positive usage (none
  // is while that mean is 0). The mean is O(users): read it once per pass.
  const double mean_usage = config_.bar_heavy_users ? ctx().mean_positive_usage() : 0.0;
  const double heavy_above = config_.heavy_user_factor * mean_usage;
  std::vector<JobId> eligible;
  for (const JobId id : waiting()) {
    const Job& job = ctx().job(id);
    if (now - job.submit < config_.starvation_delay) continue;
    if (mean_usage > 0.0 && ctx().user_usage(job.user) > heavy_above) continue;
    eligible.push_back(id);
  }
  // The starvation queue is FCFS by submission.
  std::sort(eligible.begin(), eligible.end(), [&](JobId a, JobId b) {
    const Job& ja = ctx().job(a);
    const Job& jb = ctx().job(b);
    return ja.submit != jb.submit ? ja.submit < jb.submit : a < b;
  });
  starve_.insert(starve_.end(), eligible.begin(), eligible.end());
  dequeue(eligible);
}

void CplantScheduler::collect_starts(std::vector<JobId>& starts) {
  promote_starving_jobs();
  const Time now = ctx().now();

  // One backfill pass over the starvation queue (FCFS) followed by the main
  // queue (configured priority). Only the starvation queue may reserve, and
  // only once: its first job that does not fit pins the single internal
  // reservation; every other job starts only if it respects it.
  std::vector<JobId> order(starve_.begin(), starve_.end());
  const std::vector<JobId>& queue = waiting_by_priority(config_.priority);
  order.insert(order.end(), queue.begin(), queue.end());
  std::optional<Time> wake = backfill(order, starve_.size(), 1, starts);
  erase_ids(starve_, starts);

  // Timers: the head reservation, the next starvation-eligibility instant,
  // and (with the heavy-user bar) a periodic recheck for barred jobs.
  if (starvation_enabled()) {
    bool any_barred_now = false;
    for (const JobId id : waiting()) {
      const Time eligible_at = ctx().job(id).submit + config_.starvation_delay;
      if (eligible_at > now) {
        if (!wake || eligible_at < *wake) wake = eligible_at;
      } else {
        any_barred_now = true;  // eligible but (necessarily) barred
      }
    }
    if (any_barred_now) {
      const Time recheck = now + kHeavyRecheckInterval;
      if (!wake || recheck < *wake) wake = recheck;
    }
  }
  wakeup_ = wake;
}

}  // namespace psched
