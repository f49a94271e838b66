#include "core/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace psched {

namespace {

/// Where one queued job sorts: priority order is ascending in this key.
struct PriorityKey {
  double usage;
  Time submit;
  JobId id;

  bool operator<(const PriorityKey& other) const {
    if (usage != other.usage) return usage < other.usage;
    if (submit != other.submit) return submit < other.submit;
    return id < other.id;
  }
};

PriorityKey priority_key(const SchedulerContext& ctx, JobId id, PriorityKind kind) {
  const Job& job = ctx.job(id);
  return {kind == PriorityKind::Fairshare ? ctx.user_usage(job.user) : 0.0, job.submit, id};
}

}  // namespace

const SchedulerContext& Scheduler::ctx() const {
  if (ctx_ == nullptr) throw std::logic_error("Scheduler used before attach()");
  return *ctx_;
}

void Scheduler::on_submit(JobId id) {
  if (!order_current()) {
    waiting_.push_back(id);
    order_.reset();
    return;
  }
  // Every queued key is as it was at the last sort, so the new job's slot is
  // where a full sort would put it.
  const PriorityKind kind = order_->kind;
  const PriorityKey key = priority_key(ctx(), id, kind);
  const auto slot = std::lower_bound(
      waiting_.begin(), waiting_.end(), key,
      [&](JobId queued, const PriorityKey& k) { return priority_key(ctx(), queued, kind) < k; });
  waiting_.insert(slot, id);
}

bool Scheduler::order_current() const {
  return order_ &&
         (order_->kind == PriorityKind::Fcfs || order_->epoch == ctx().fairshare_epoch());
}

const std::vector<JobId>& Scheduler::waiting_by_priority(PriorityKind kind) {
  if (!order_current() || order_->kind != kind) {
    if (waiting_.size() > 1) {
      obs::count(obs::Counter::kSchedQueueSorts);
      waiting_ = sorted_by_priority(std::move(waiting_), kind);
    }
    order_ = QueueOrder{kind, ctx().fairshare_epoch()};
  }
  return waiting_;
}

std::vector<JobId> Scheduler::sorted_by_priority(std::vector<JobId> ids, PriorityKind kind) const {
  // Decorate-sort-undecorate: one context/job lookup per id instead of two
  // virtual calls per comparison.
  std::vector<PriorityKey> keys;
  keys.reserve(ids.size());
  for (const JobId id : ids) keys.push_back(priority_key(ctx(), id, kind));
  std::sort(keys.begin(), keys.end());
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
