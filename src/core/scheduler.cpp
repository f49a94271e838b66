#include "core/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace psched {

const SchedulerContext& Scheduler::ctx() const {
  if (ctx_ == nullptr) throw std::logic_error("Scheduler used before attach()");
  return *ctx_;
}

std::vector<JobId> Scheduler::sorted_by_priority(std::vector<JobId> ids, PriorityKind kind) const {
  // Decorate-sort-undecorate: one context/job lookup per id instead of two
  // virtual calls per comparison.
  struct Key {
    double usage;
    Time submit;
    JobId id;
  };
  std::vector<Key> keys;
  keys.reserve(ids.size());
  for (const JobId id : ids) {
    const Job& job = ctx().job(id);
    keys.push_back({kind == PriorityKind::Fairshare ? ctx().user_usage(job.user) : 0.0,
                    job.submit, id});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.usage != b.usage) return a.usage < b.usage;
    if (a.submit != b.submit) return a.submit < b.submit;
    return a.id < b.id;
  });
  for (std::size_t i = 0; i < keys.size(); ++i) ids[i] = keys[i].id;
  return ids;
}

std::optional<Time> Scheduler::backfill(std::span<const JobId> order, std::size_t reservable,
                                        int depth, std::vector<JobId>& starts) {
  if (order.empty()) return std::nullopt;
  const Time now = ctx().now();
  NodeCount free = ctx().free_nodes();
  Profile& profile = scratch_profile(now);
  add_running_to_profile(profile);

  std::optional<Time> earliest_reservation;
  int reserved = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Job& job = ctx().job(order[i]);
    if (job.nodes <= free && profile.fits_at(now, job.wcl, job.nodes)) {
      starts.push_back(order[i]);
      profile.add_usage(now, now + job.wcl, job.nodes);
      free -= job.nodes;
    } else if (i < reservable && reserved < depth) {
      const Time at = profile.earliest_fit(now, job.wcl, job.nodes);
      profile.add_usage(at, at + job.wcl, job.nodes);
      if (!earliest_reservation || at < *earliest_reservation) earliest_reservation = at;
      ++reserved;
    }
  }
  dequeue(starts);
  return earliest_reservation;
}

Time Scheduler::assumed_running_end(const RunningView& r, Time now) {
  // A job past its estimated end is assumed to keep running for as long as
  // it has already over-run (at least kOverrunGrace). The growing horizon
  // keeps reservation recomputations to O(log overrun) instead of stepping
  // one second at a time.
  if (r.est_end > now) return r.est_end;
  return now + std::max<Time>(kOverrunGrace, now - r.est_end);
}

void Scheduler::add_running_to_profile(Profile& profile) const {
  const Time now = ctx().now();
  profile.begin_batch();
  for (const RunningView& r : ctx().running())
    profile.add_usage(now, assumed_running_end(r, now), r.nodes);
  profile.end_batch();
}

Profile& Scheduler::scratch_profile(Time now) {
  const NodeCount capacity = ctx().total_nodes();
  if (!scratch_profile_ || scratch_profile_->capacity() != capacity)
    scratch_profile_.emplace(capacity, now);
  else
    scratch_profile_->reset(now);
  return *scratch_profile_;
}

}  // namespace psched
