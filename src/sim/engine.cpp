#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace psched::sim {

namespace {

/// Fairshare decay period: CPlant decayed usage every 24 hours.
constexpr Time kFairsharePeriod = days(1);
/// Re-test interval for spared over-running jobs under KillIfNeeded.
constexpr Time kWclRecheckInterval = hours(1);

/// Fairshare order, as Scheduler::sorted_by_priority ranks a Fairshare
/// queue: lower published usage first, then earlier submit, then lower id.
/// Ids are unique, so this is a strict total order.
bool fairshare_ahead(const SnapshotWaiting& a, const SnapshotWaiting& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.submit != b.submit) return a.submit < b.submit;
  return a.id < b.id;
}

}  // namespace

SimulationEngine::SimulationEngine(const Workload& workload, EngineConfig config)
    : SimulationEngine(workload, std::move(config), nullptr) {}

SimulationEngine::SimulationEngine(const Workload& workload, EngineConfig config,
                                   std::unique_ptr<Scheduler> scheduler)
    : workload_(workload),
      config_(std::move(config)),
      limiter_(config_.policy.max_runtime),
      scheduler_(scheduler ? std::move(scheduler) : make_scheduler(config_.policy)),
      fairshare_(config_.fairshare_decay, kFairsharePeriod,
                 workload.jobs.empty() ? 0 : workload.jobs.front().submit),
      system_size_(workload.system_size),
      free_nodes_(workload.system_size) {
  workload_.validate();
  scheduler_->attach(*this);
  now_ = workload_.jobs.empty() ? 0 : workload_.jobs.front().submit;

  result_.policy_name = config_.policy.display_name();
  result_.system_size = system_size_;
  result_.original_job_count = workload_.jobs.size();
  result_.segments_of_original.resize(workload_.jobs.size());

  // Seed the record table with every segment up front. Their arrivals are
  // NOT pushed onto the event heap — seeded records are already in
  // (submit, id) order (segments inherit the original's submit; the workload
  // is sorted), so the run loop walks them with a cursor instead. The heap
  // stays O(queue) and a fork inherits the cursor, not O(trace) arrival
  // events.
  for (const Job& original : workload_.jobs) {
    const std::int32_t count = limiter_.segment_count(original);
    for (std::int32_t s = 0; s < count; ++s) {
      const auto record_id = static_cast<JobId>(result_.records.size());
      JobRecord record;
      record.job = limiter_.make_segment(original, s, record_id);
      result_.records.push_back(record);
      result_.segments_of_original.at(static_cast<std::size_t>(original.id))
          .push_back(record_id);
    }
  }
  seeded_end_ = static_cast<JobId>(result_.records.size());
}

SimulationEngine::SimulationEngine(const SimulationEngine& other, JobId target)
    : workload_(other.workload_),
      config_(other.config_),
      limiter_(other.limiter_),
      scheduler_(other.scheduler_->clone()),
      fairshare_(other.fairshare_),
      system_size_(other.system_size_),
      free_nodes_(other.free_nodes_),
      now_(other.now_),
      pass_owed_(other.pass_owed_),
      ran_(true),
      events_(other.events_),
      pending_timers_(other.pending_timers_),
      arrival_limit_(target),
      next_seeded_(other.next_seeded_),
      seeded_end_(std::min<JobId>(other.seeded_end_, target + 1)),
      running_state_(other.running_state_),
      running_view_(other.running_view_),
      fairshare_order_(other.fairshare_order_),
      fairshare_order_epoch_(other.fairshare_order_epoch_),
      // Forked at target + 1's hook, the target may have started already.
      fork_target_start_(other.record_start(target)),
      waiting_demand_(other.waiting_demand_),
      running_nodes_(other.running_nodes_) {
  if (!scheduler_)
    throw std::logic_error("SimulationEngine::fork: the scheduler does not implement clone()");
  scheduler_->attach(*this);
  config_.record_snapshots = false;  // forks exist only to produce start times

  // The fork's universe ends with job `target` — enforced by capping the
  // seeded-arrival cursor at target + 1 above, a constant-time operation
  // where trimming a record table used to cost O(target). The copied event
  // heap holds only completions / WCL checks / timers: O(queue).
}

std::unique_ptr<SimulationEngine> SimulationEngine::fork_for_arrival(JobId target) const {
  if (limiter_.enabled())
    throw std::logic_error(
        "SimulationEngine::fork_for_arrival: runtime-limit segments break the record-id == "
        "workload-index identity forks rely on");
  if (target < 0 || static_cast<std::size_t>(target) >= result_.records.size())
    throw std::out_of_range("SimulationEngine::fork_for_arrival: unknown record id");
  // The state-equivalence argument holds exactly while the next pending
  // event is the arrival of the target or of the job after it (the hook
  // fires there); forking any other id would silently yield a start from
  // the wrong universe, so check it.
  const std::optional<PendingEvent> pending = peek_event();
  if (!pending || pending->event.kind != EventKind::Arrive ||
      (pending->event.id != target && pending->event.id != target + 1))
    throw std::logic_error(
        "SimulationEngine::fork_for_arrival: only valid from inside the arrival hook for the "
        "target or the job after it (that arrival must be the next pending event)");
  return std::unique_ptr<SimulationEngine>(new SimulationEngine(*this, target));
}

const Job& SimulationEngine::job(JobId id) const {
  // A fork has no record table; record ids equal workload indices there
  // (fork_for_arrival rejects runtime-limit runs), so the shared immutable
  // job table serves every lookup. Note a master record's job differs from
  // the workload's only in segment bookkeeping (parent/segment fields),
  // which nothing on the fork path reads.
  if (is_fork()) return workload_.jobs.at(static_cast<std::size_t>(id));
  return result_.records.at(static_cast<std::size_t>(id)).job;
}

Time SimulationEngine::record_start(JobId id) const {
  if (!is_fork()) return result_.records.at(static_cast<std::size_t>(id)).start;
  if (id != arrival_limit_)
    throw std::logic_error("engine: a fork records only its target's start");
  return fork_target_start_;
}

void SimulationEngine::set_record_start(JobId id, Time at) {
  if (!is_fork())
    result_.records[static_cast<std::size_t>(id)].start = at;
  else if (id == arrival_limit_)
    fork_target_start_ = at;
}

void SimulationEngine::advance_accounting(Time to) {
  const Time dt = to - now_;
  if (dt > 0) {
    const double seconds = static_cast<double>(dt);
    result_.busy_proc_seconds += static_cast<double>(running_nodes_) * seconds;
    const NodeCount idle = system_size_ - running_nodes_;
    const NodeCount wasted = std::min(waiting_demand_, idle);
    result_.loc_proc_seconds += static_cast<double>(wasted) * seconds;
  }
  fairshare_.advance(to);
  now_ = to;
}

SnapshotWaiting SimulationEngine::waiting_entry(JobId id) const {
  const Job& j = job(id);
  SnapshotWaiting entry;
  entry.id = id;
  entry.nodes = j.nodes;
  entry.runtime = j.runtime;
  entry.wcl = j.wcl;
  entry.submit = j.submit;
  entry.priority = fairshare_.usage(j.user);
  return entry;
}

std::size_t SimulationEngine::record_snapshot(
    JobId id, std::vector<SnapshotWaiting>::const_iterator slot) {
  ArrivalSnapshot snapshot;
  snapshot.id = id;
  snapshot.at = now_;
  snapshot.running.reserve(running_state_.size());
  for (std::size_t i = 0; i < running_state_.size(); ++i) {
    SnapshotRunning r;
    r.nodes = running_view_[i].nodes;
    r.remaining = running_state_[i].actual_end - now_;
    r.est_remaining = std::max<Time>(1, running_view_[i].est_end - now_);
    snapshot.running.push_back(r);
  }
  // Everything ahead of the arriving job, then the job: all the hybrid FST
  // list-schedules, since its schedule ends where the job is placed.
  snapshot.waiting.assign(fairshare_order_.cbegin(), slot + 1);
  const std::size_t entries = snapshot.waiting.size();
  result_.snapshots.at(static_cast<std::size_t>(id)) = std::move(snapshot);
  return entries;
}

void SimulationEngine::refresh_fairshare_order() {
  const std::uint64_t epoch = fairshare_.publish_epoch();
  if (epoch == fairshare_order_epoch_) return;
  for (SnapshotWaiting& w : fairshare_order_) w.priority = fairshare_.usage(job(w.id).user);
  std::sort(fairshare_order_.begin(), fairshare_order_.end(), fairshare_ahead);
  fairshare_order_epoch_ = epoch;
}

void SimulationEngine::fairshare_order_erase(JobId id) {
  refresh_fairshare_order();
  const auto it = std::lower_bound(fairshare_order_.begin(), fairshare_order_.end(),
                                   waiting_entry(id), fairshare_ahead);
  if (it == fairshare_order_.end() || it->id != id)
    throw std::logic_error("engine: started job " + std::to_string(id) +
                           ", which is not waiting");
  fairshare_order_.erase(it);
}

std::size_t SimulationEngine::deliver_arrival(JobId id) {
  refresh_fairshare_order();
  const SnapshotWaiting arriving = waiting_entry(id);
  const auto slot = fairshare_order_.insert(
      std::lower_bound(fairshare_order_.begin(), fairshare_order_.end(), arriving,
                       fairshare_ahead),
      arriving);
  waiting_demand_ += arriving.nodes;
  const std::size_t entries = config_.record_snapshots ? record_snapshot(id, slot) : 0;
  scheduler_->on_submit(id);
  return entries;
}

void SimulationEngine::start_job(JobId id) {
  const Job& j = job(id);
  if (j.nodes > free_nodes_)
    throw std::logic_error("engine: scheduler started " + std::to_string(j.nodes) +
                           " nodes with only " + std::to_string(free_nodes_) + " free");
  fairshare_order_erase(id);
  waiting_demand_ -= j.nodes;
  free_nodes_ -= j.nodes;
  running_nodes_ += j.nodes;
  fairshare_.on_job_start(j.user, j.nodes);

  set_record_start(id, now_);
  if (result_.first_start == kNoTime || now_ < result_.first_start) result_.first_start = now_;

  Time end = now_ + j.runtime;
  bool killed = false;
  if (config_.wcl_enforcement == WclEnforcement::Always && j.wcl < j.runtime) {
    end = now_ + j.wcl;
    killed = true;
  }
  running_state_.push_back({id, now_ + j.runtime});
  running_view_.push_back({id, j.nodes, now_, now_ + j.wcl});

  if (killed) {
    push_event({end, EventKind::Complete, id});
    // The kill annotation is per-record output; forks produce no records.
    if (!is_fork()) result_.records[static_cast<std::size_t>(id)].killed_at_wcl = true;
  } else {
    push_event({now_ + j.runtime, EventKind::Complete, id});
    if (config_.wcl_enforcement == WclEnforcement::KillIfNeeded && j.wcl < j.runtime)
      push_event({now_ + j.wcl, EventKind::WclCheck, id});
  }
}

void SimulationEngine::deliver_completion(JobId id, Time finish, bool killed) {
  const auto state_it =
      std::find_if(running_state_.begin(), running_state_.end(),
                   [id](const RunningState& r) { return r.id == id; });
  if (state_it == running_state_.end()) return;  // already completed (e.g. killed earlier)
  const auto index = static_cast<std::size_t>(std::distance(running_state_.begin(), state_it));

  const Job& j = job(id);
  free_nodes_ += j.nodes;
  running_nodes_ -= j.nodes;
  fairshare_.on_job_stop(j.user, j.nodes);
  running_state_.erase(state_it);
  running_view_.erase(running_view_.begin() + static_cast<std::ptrdiff_t>(index));

  if (!is_fork()) {
    JobRecord& record = result_.records[static_cast<std::size_t>(id)];
    record.finish = finish;
    record.killed_at_wcl = record.killed_at_wcl || killed;
  }
  if (result_.last_finish == kNoTime || finish > result_.last_finish) result_.last_finish = finish;

  scheduler_->on_complete(id);
}

void SimulationEngine::handle_wcl_check(JobId id) {
  const auto state_it =
      std::find_if(running_state_.begin(), running_state_.end(),
                   [id](const RunningState& r) { return r.id == id; });
  if (state_it == running_state_.end()) return;  // finished before the check fired
  const Job& j = job(id);
  // CPlant semantics: the over-running job dies only if some waiting job
  // could start with the freed processors.
  const NodeCount would_be_free = free_nodes_ + j.nodes;
  const bool needed =
      std::any_of(fairshare_order_.begin(), fairshare_order_.end(),
                  [&](const SnapshotWaiting& w) { return w.nodes <= would_be_free; });
  if (needed)
    deliver_completion(id, now_, /*killed=*/true);
  else
    push_event({now_ + kWclRecheckInterval, EventKind::WclCheck, id});
}

void SimulationEngine::schedule_timer(Time at) {
  if (at <= now_) at = now_ + 1;
  if (pending_timers_.insert(at).second) push_event({at, EventKind::Timer, kInvalidJob});
}

void SimulationEngine::push_event(const Event& event) {
  events_.push_back(event);
  std::push_heap(events_.begin(), events_.end(), std::greater<Event>{});
}

void SimulationEngine::pop_event() {
  std::pop_heap(events_.begin(), events_.end(), std::greater<Event>{});
  events_.pop_back();
}

std::optional<SimulationEngine::PendingEvent> SimulationEngine::peek_event() const {
  if (next_seeded_ < seeded_end_) {
    const Event cursor{job(next_seeded_).submit, EventKind::Arrive, next_seeded_};
    // The cursor arrival wins ties against itself never (ids are unique) and
    // loses ties to completions/earlier kinds exactly as a heap entry would:
    // both sides use Event's (at, kind, id) order.
    if (events_.empty() || events_top() > cursor) return PendingEvent{cursor, true};
  }
  if (events_.empty()) return std::nullopt;
  return PendingEvent{events_top(), false};
}

void SimulationEngine::consume_event(const PendingEvent& pending) {
  if (pending.from_cursor)
    ++next_seeded_;
  else
    pop_event();
}

std::size_t SimulationEngine::fork_footprint_bytes() const {
  constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);  // tree links
  return events_.capacity() * sizeof(Event) +
         fairshare_order_.capacity() * sizeof(SnapshotWaiting) +
         running_state_.capacity() * sizeof(RunningState) +
         running_view_.capacity() * sizeof(RunningView) +
         pending_timers_.size() * (sizeof(Time) + 2 * kNodeOverhead);
}

void SimulationEngine::run_loop(const ArrivalHook* hook, JobId run_until) {
  // Count events, invocations and snapshot entries in locals (no atomics in
  // the hot loop) and flush once per run_loop call — the destructor also
  // runs on the early fork return and on SimulationCancelled, so partial
  // passes still report.
  // The obs bumps are each one relaxed load when tracing is disarmed.
  struct CounterFlush {
    explicit CounterFlush(SimulationResult* r) : result(r) {}
    SimulationResult* result;
    std::uint64_t events = 0;
    std::uint64_t invocations = 0;
    std::uint64_t snapshot_entries = 0;
    ~CounterFlush() {
      result->events_delivered += events;
      result->scheduler_invocations += invocations;
      obs::count(obs::Counter::kEngineEventsDelivered, events);
      obs::count(obs::Counter::kEngineSchedulerInvocations, invocations);
      obs::count(obs::Counter::kEngineSnapshotEntries, snapshot_entries);
    }
  } flush{&result_};

  std::vector<JobId> starts;
  std::optional<PendingEvent> pending = peek_event();
  while (pending || pass_owed_) {
    // Cooperative cancellation at the event boundary: engine state here is a
    // consistent between-events snapshot, so a cancelled run can be thrown
    // away without ever exposing a torn result.
    if (config_.stop.stop_requested()) throw SimulationCancelled(config_.stop.reason());
    // A fork taken mid-instant first finishes the master's instant at now_.
    const Time t = pass_owed_ ? now_ : pending->event.at;

    // Drain every event at this instant; completions sort before arrivals.
    while (pending && pending->event.at == t) {
      const Event event = pending->event;
      // The hook fires with the arrival still pending: nothing of this (or
      // any later) job has touched the engine yet, so a fork taken here is
      // byte-identical to a run over the workload truncated after event.id
      // (or, for its predecessor, after event.id - 1). Accounting advances
      // only after it, at the instant's first consumed event, so a fork
      // taken before that holds the settled state of the previous instant.
      if (hook != nullptr && event.kind == EventKind::Arrive) (*hook)(event.id);
      if (!pass_owed_) {
        advance_accounting(t);
        pass_owed_ = true;
      }
      consume_event(*pending);
      ++flush.events;
      switch (event.kind) {
        case EventKind::Complete:
          deliver_completion(event.id, t, /*killed=*/false);
          break;
        case EventKind::Arrive:
          flush.snapshot_entries += deliver_arrival(event.id);
          break;
        case EventKind::WclCheck:
          handle_wcl_check(event.id);
          break;
        case EventKind::Timer:
          pending_timers_.erase(t);
          break;
      }
      pending = peek_event();
    }

    starts.clear();
    pass_owed_ = false;
    scheduler_->collect_starts(starts);
    ++flush.invocations;
    for (const JobId id : starts) start_job(id);

    if (run_until != kInvalidJob && record_start(run_until) != kNoTime) return;

    if (const std::optional<Time> wake = scheduler_->next_wakeup();
        wake && !fairshare_order_.empty())
      schedule_timer(*wake);
    pending = peek_event();
  }
}

SimulationResult SimulationEngine::run() { return run_with_arrival_hook(nullptr); }

SimulationResult SimulationEngine::run_with_arrival_hook(const ArrivalHook& hook) {
  if (ran_) throw std::logic_error("SimulationEngine::run called twice");
  ran_ = true;
  // The record table is complete from construction on, so per-record state
  // is sized once here.
  if (config_.record_snapshots) result_.snapshots.resize(result_.records.size());

  run_loop(hook ? &hook : nullptr, kInvalidJob);

  if (!fairshare_order_.empty())
    throw std::logic_error("engine: simulation ended with " +
                           std::to_string(fairshare_order_.size()) + " jobs still waiting");
  if (!running_state_.empty())
    throw std::logic_error("engine: simulation ended with jobs still running");

  return std::move(result_);
}

Time SimulationEngine::run_until_started(JobId target) {
  if (!is_fork())
    throw std::logic_error("SimulationEngine::run_until_started: not a fork");
  if (target != arrival_limit_)
    throw std::logic_error("SimulationEngine::run_until_started: target is not the fork's job");
  run_loop(nullptr, target);
  const Time start = record_start(target);
  if (start == kNoTime)
    throw std::logic_error("SimulationEngine::run_until_started: fork drained without starting " +
                           std::to_string(target));
  return start;
}

SimulationResult simulate(const Workload& workload, const EngineConfig& config) {
  SimulationEngine engine(workload, config);
  return engine.run();
}

SimulationResult simulate_with(const Workload& workload, const EngineConfig& config,
                               std::unique_ptr<Scheduler> scheduler) {
  SimulationEngine engine(workload, config, std::move(scheduler));
  return engine.run();
}

}  // namespace psched::sim
