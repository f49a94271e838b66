#pragma once
// Scheduler interface: the policy side of the simulator. The simulation
// engine owns machine state, running jobs, fairshare accounting and the event
// loop; a Scheduler observes submissions/completions and answers two
// questions at every scheduling event: "which waiting jobs start right now?"
// and "when do you next need to act without an external event?".
//
// The base class also carries what every built-in policy shares: the wait
// queue (one vector of submitted ids kept in priority order, one-pass removal
// of started jobs) and the backfill pass ("start it if it fits now, otherwise
// pin a reservation while under depth"). EASY is that pass at depth 1,
// reservation depth n is the same pass at depth n, and CPlant runs it over its
// starvation queue followed by its main queue.
//
// The queue is sorted once and then kept in order: published fairshare usage
// only changes at a decay boundary (SchedulerContext::fairshare_epoch), so
// between two boundaries an arrival is inserted at its binary-search slot and
// a removal keeps the rest in place. The whole queue is re-sorted only on the
// first pass and when the epoch has moved; FCFS order never changes at all.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fairshare.hpp"
#include "core/job.hpp"
#include "core/profile.hpp"
#include "core/types.hpp"

namespace psched {

/// What a policy may legitimately know about a running job: its identity,
/// width, start, and *estimated* end (start + WCL). Actual runtimes are
/// hidden — production schedulers only see estimates.
struct RunningView {
  JobId id = kInvalidJob;
  NodeCount nodes = 0;
  Time start = 0;
  Time est_end = 0;
};

/// Read-only window onto engine state, implemented by sim::SimulationEngine
/// (and by lightweight fixtures in tests).
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;
  virtual Time now() const = 0;
  virtual NodeCount total_nodes() const = 0;
  virtual NodeCount free_nodes() const = 0;
  virtual const Job& job(JobId id) const = 0;
  virtual const std::vector<RunningView>& running() const = 0;
  /// Decayed fairshare usage of a user (lower = higher priority).
  virtual double user_usage(UserId user) const = 0;
  /// Mean usage over users with positive usage (heavy-user bar threshold).
  virtual double mean_positive_usage() const = 0;
  /// Publish epoch of user_usage(): it must move whenever any user_usage()
  /// value may have changed (the engine forwards
  /// FairshareTracker::publish_epoch). The scheduler base keys its sorted
  /// wait queue on it, so a context that changed usage without moving it
  /// would leave the queue in a stale order.
  virtual std::uint64_t fairshare_epoch() const = 0;
};

/// Queue ordering used by the policies. Fairshare is the Sandia production
/// order; Fcfs is used for baselines and for the CONS_P fairness metric.
enum class PriorityKind { Fairshare, Fcfs };

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Must be called once before any event is delivered.
  void attach(const SchedulerContext& context) { ctx_ = &context; }

  virtual std::string name() const = 0;

  /// A job entered the wait queue at ctx().now(). The base adds it to the
  /// shared wait queue (at its priority slot while the queue order is
  /// current, otherwise at the end); an override that keeps per-job state of
  /// its own calls Scheduler::on_submit too.
  virtual void on_submit(JobId id);

  /// A running job completed (its nodes are already back in the free pool).
  /// The base has nothing to do.
  virtual void on_complete(JobId /*id*/) {}

  /// Append jobs to launch *now*, in launch order. The engine launches them
  /// in exactly that order and errors out on infeasible requests, so the
  /// scheduler must account for its own picks within one call (free nodes
  /// are not refreshed until the call returns). Implementations remove
  /// emitted jobs from the wait queue (dequeue(); backfill() does it).
  virtual void collect_starts(std::vector<JobId>& starts) = 0;

  /// Next time the scheduler needs a timer event (reservation start,
  /// starvation-queue eligibility, ...). nullopt = only external events.
  virtual std::optional<Time> next_wakeup() const { return std::nullopt; }

  /// Deep-copy the scheduler, including all queue and planning state (e.g.
  /// the conservative family's persistent plan profile). The clone is NOT
  /// attached — the new owner must call attach() with its own context before
  /// delivering events. This is what makes the simulation engine forkable
  /// (sim::SimulationEngine::fork_for_arrival): a fork resumes mid-run from
  /// a byte-identical policy state. The default returns nullptr, meaning the
  /// scheduler does not support forking; all built-in policies override it.
  virtual std::unique_ptr<Scheduler> clone() const { return nullptr; }

 protected:
  const SchedulerContext& ctx() const;

  /// Helper for clone() implementations: copy-construct `Derived` and clear
  /// the copied context pointer, so using the clone before attach() fails
  /// loudly instead of silently reading the original engine's state.
  template <typename Derived>
  static std::unique_ptr<Scheduler> cloned(const Derived& self) {
    auto copy = std::make_unique<Derived>(self);
    copy->ctx_ = nullptr;
    return copy;
  }

  // --- the wait queue ------------------------------------------------------

  /// Submitted jobs that have not started, in no promised order (the last
  /// priority order, possibly with later arrivals appended). For readers
  /// that do not depend on the order.
  const std::vector<JobId>& waiting() const { return waiting_; }

  /// The wait queue in `kind` priority order. The reference stays valid
  /// until the queue next changes (on_submit, dequeue, backfill). Sorts only
  /// if the queue is not yet in `kind` order under the current fairshare
  /// epoch; otherwise it returns the queue as it stands.
  const std::vector<JobId>& waiting_by_priority(PriorityKind kind);

  /// Remove `ids` from the wait queue in one pass (ids not queued are
  /// ignored; the rest keep their order, so a sorted queue stays sorted).
  void dequeue(std::span<const JobId> ids) { erase_ids(waiting_, ids); }

  /// Remove every id in `ids` from `queue` in one pass, preserving order.
  template <typename Queue>
  static void erase_ids(Queue& queue, std::span<const JobId> ids) {
    if (ids.empty()) return;
    std::erase_if(queue,
                  [&](JobId id) { return std::find(ids.begin(), ids.end(), id) != ids.end(); });
  }

  /// One backfill pass at ctx().now() over `order`. Each job starts now if it
  /// fits beside the running jobs and every reservation pinned so far.
  /// Otherwise, while fewer than `depth` reservations are pinned and the job
  /// is among the first `reservable` entries of `order`, it pins a
  /// reservation at its earliest fit, which every later job must respect.
  /// Started ids are appended to `starts` and leave the wait queue once the
  /// pass is over, so `order` may be waiting_by_priority() itself; it is
  /// invalid after the call. Returns the earliest reservation, if any.
  std::optional<Time> backfill(std::span<const JobId> order, std::size_t reservable, int depth,
                               std::vector<JobId>& starts);

  /// `ids` in `kind` priority order: under Fairshare, lower decayed user
  /// usage first; then earlier submit; then lower id (a strict total order,
  /// so the result is deterministic). Sort keys are materialized once per id
  /// instead of re-derived through the context on every comparison. The one
  /// place the wait queue is sorted.
  std::vector<JobId> sorted_by_priority(std::vector<JobId> ids, PriorityKind kind) const;

  /// Fill `profile` with usage of all running jobs. Jobs past their
  /// estimated end are assumed to run on for max(kOverrunGrace, elapsed
  /// overrun) more seconds — an exponential-backoff horizon that keeps
  /// over-runners from triggering per-second replans.
  void add_running_to_profile(Profile& profile) const;

  /// Shared per-scheduler scratch profile, reset to "all free from now".
  /// Lazily sized to ctx().total_nodes(); reusing it across scheduling
  /// events avoids re-allocating the step vector on every event.
  Profile& scratch_profile(Time now);

  /// Assumed end of a running job's usage at time `now`: its estimated end,
  /// or — once it has over-run — an exponential-backoff horizon of
  /// max(kOverrunGrace, elapsed overrun) more seconds. The single source of
  /// truth for every policy's profile seeding.
  static Time assumed_running_end(const RunningView& r, Time now);

  /// Minimum assumed remaining runtime for a job past its WCL.
  static constexpr Time kOverrunGrace = 300;

 private:
  /// The order `waiting_` is sorted in: a priority kind under the published
  /// usage of one fairshare epoch.
  struct QueueOrder {
    PriorityKind kind;
    std::uint64_t epoch;
  };

  /// `waiting_` is in `order_` and that order still holds now.
  bool order_current() const;

  const SchedulerContext* ctx_ = nullptr;
  std::vector<JobId> waiting_;
  std::optional<QueueOrder> order_;  ///< nullopt: `waiting_` is in no known order
  std::optional<Profile> scratch_profile_;
};

}  // namespace psched
