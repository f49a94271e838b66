#pragma once
// Event-driven simulation engine (paper section 3.1). The engine owns all
// machine and accounting state — free nodes, running jobs, the fairshare
// tracker, the loss-of-capacity integral, per-arrival snapshots and the
// event heap — and delegates policy decisions to a core::Scheduler built
// from the configured PolicyConfig.
//
// Maximum-runtime limits (section 5.1) are applied here, as the paper's
// trace preprocessing: an original job longer than the limit becomes
// several segments, all submitted at the original's submit time.
//
// The engine keeps one waiting set, in fairshare order (published usage,
// submit, id), re-keyed only when the fairshare publish epoch moves. Masters
// and forks keep it alike. Arrival snapshots (record_snapshots) hold what the
// hybrid FST reads and no more: the jobs ahead of the arriving job in that
// order, then the job itself, so recording a snapshot copies a prefix of the
// set and sorts nothing.
//
// Arrival events are NOT pre-seeded into the event heap: the seeded records
// are already sorted by (submit, record id) — exactly the heap's ordering —
// so a cursor over them is merged with the heap on the fly. The heap only
// ever holds completions, WCL checks and timers, keeping it (and every
// fork's copy of it) O(queue), not O(trace).

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/fairshare.hpp"
#include "core/job.hpp"
#include "core/policy.hpp"
#include "core/record.hpp"
#include "core/runtime_limit.hpp"
#include "core/scheduler.hpp"
#include "util/stop_token.hpp"

namespace psched::sim {

/// Thrown when a simulation observes its StopToken tripped (cancellation or
/// deadline). Always raised at an event boundary, so the abandoned engine
/// never produced a partial SimulationResult — a cancelled run is simply
/// discarded, never a corrupted result. reason() distinguishes an explicit
/// stop (SIGINT, dependent failure) from a deadline (cell timeout,
/// wall-clock budget).
class SimulationCancelled : public std::runtime_error {
 public:
  explicit SimulationCancelled(util::StopReason reason)
      : std::runtime_error(std::string("simulation stopped: ") +
                           util::stop_reason_name(reason)),
        reason_(reason) {}
  util::StopReason reason() const { return reason_; }

 private:
  util::StopReason reason_;
};

/// What happens when a job reaches its wall clock limit while still running.
/// CPlant killed jobs at the WCL only when other jobs wanted the processors
/// (paper section 2.2); trace replays conventionally let jobs run to their
/// recorded runtime.
enum class WclEnforcement {
  Never,         ///< jobs always run to their trace runtime (default)
  KillIfNeeded,  ///< kill at WCL when a waiting job could use the nodes
  Always,        ///< hard limit: runtime is truncated to the WCL
};

struct EngineConfig {
  PolicyConfig policy;
  /// Usage multiplier per decay period, which is one day (CPlant decayed
  /// every 24 hours). 0.9/day keeps a heavy user's standing depressed for a
  /// week or two (half-life ~6.6 days), which is what makes the starvation
  /// dynamics of the paper's policies visible; 0.5/day would forgive heavy
  /// use overnight.
  double fairshare_decay = 0.9;
  WclEnforcement wcl_enforcement = WclEnforcement::Never;
  /// Record an ArrivalSnapshot per arrival (the hybrid FST's input; see
  /// ArrivalSnapshot for what its waiting list holds). It only decides
  /// whether an arrival copies one: the schedule is the same either way.
  bool record_snapshots = true;
  /// Cooperative cancellation: polled at every event boundary of the run
  /// loop (and therefore inside every fork drain — forks copy the config).
  /// When it trips, the run throws SimulationCancelled. Empty (the default)
  /// costs one branch per event batch.
  util::StopToken stop;
};

/// Runs one policy over one workload. Single-shot: construct, run(), read the
/// result. The engine implements SchedulerContext for its scheduler.
class SimulationEngine final : public SchedulerContext {
 public:
  SimulationEngine(const Workload& workload, EngineConfig config);

  /// Inject a custom Scheduler implementation instead of building one from
  /// config.policy (the policy's max_runtime / fairshare knobs still apply).
  SimulationEngine(const Workload& workload, EngineConfig config,
                   std::unique_ptr<Scheduler> scheduler);

  /// Execute to completion and return the full result. Callable once.
  SimulationResult run();

  // --- fork support ----------------------------------------------------------
  //
  // In an event-driven simulation the engine state at job i's arrival is
  // identical whether or not jobs i+1..n exist: arrival events are ordered by
  // (submit, record id) and the workload is sorted the same way, so until job
  // i+1's arrival is delivered, no later job has touched any state. A fork
  // taken at the hook of arrival i or i+1 therefore resumes as if the
  // workload had been truncated after job i — which turns the O(n^2)
  // "re-simulate the truncated workload per job" fair-start-time metric into
  // one full pass plus a cheap fork per job still waiting when the next job
  // arrives (sim/policy_fst.hpp).

  /// Invoked immediately before an arrival event is delivered, with nothing
  /// of the arriving job (or any later one) in the engine yet. Other events
  /// of the same instant may already be consumed, with that instant's
  /// scheduling pass still owed; a fork taken here runs it first.
  using ArrivalHook = std::function<void(JobId)>;

  /// Like run(), but fires `hook` at every arrival. fork_for_arrival() is
  /// only meaningful from inside the hook. Callable once, instead of run().
  SimulationResult run_with_arrival_hook(const ArrivalHook& hook);

  /// Clone the engine mid-run into an independent fork that never sees an
  /// arrival with record id > `target`: machine state, pending events,
  /// fairshare tracker, waiting/running sets and the scheduler (via
  /// Scheduler::clone()) are all copied — every one of them O(queue depth).
  /// The job table is the parent's immutable shared Workload (a view bump,
  /// not a copy), the only start time a fork keeps is `target`'s, and the
  /// seeded-arrival cursor is simply capped at `target`, so fork cost is
  /// independent of the arrival index. Only valid from inside an arrival
  /// hook, at the hook invocation for `target` or `target + 1`; requires no
  /// maximum-runtime limit (record ids must equal workload indices) and a
  /// clone()-capable scheduler.
  std::unique_ptr<SimulationEngine> fork_for_arrival(JobId target) const;

  /// Drain a fork until `target` starts and return its start time — the
  /// "no later arrivals under the actual policy" fair start time of
  /// `target`. Throws std::logic_error if the fork ends without starting it.
  Time run_until_started(JobId target);

  /// Mid-run observer: the start time recorded for `id` so far (kNoTime if
  /// it has not started yet). At the hook of arrival id+1 a recorded start
  /// is id's start in the truncated universe, so the policy FST forks only
  /// the jobs still waiting there. A fork answers only for its target.
  Time recorded_start(JobId id) const { return record_start(id); }

  /// Approximate bytes of fork-owned heap state (event heap, waiting/running
  /// sets, timers). Excludes the shared job table — that is the point of the
  /// shared-workload design — and the scheduler clone's internals. Used to
  /// report peak drain-batch footprint.
  std::size_t fork_footprint_bytes() const;

  // --- SchedulerContext ------------------------------------------------------
  Time now() const override { return now_; }
  NodeCount total_nodes() const override { return system_size_; }
  NodeCount free_nodes() const override { return free_nodes_; }
  const Job& job(JobId id) const override;
  const std::vector<RunningView>& running() const override { return running_view_; }
  double user_usage(UserId user) const override { return fairshare_.usage(user); }
  double mean_positive_usage() const override { return fairshare_.mean_positive_usage(); }
  std::uint64_t fairshare_epoch() const override { return fairshare_.publish_epoch(); }

 private:
  enum class EventKind : int { Complete = 0, Arrive = 1, WclCheck = 2, Timer = 3 };
  struct Event {
    Time at;
    EventKind kind;
    JobId id;  // record id (kInvalidJob for Timer)
    bool operator>(const Event& other) const {
      if (at != other.at) return at > other.at;
      if (kind != other.kind) return kind > other.kind;
      return id > other.id;
    }
  };
  /// The next event to deliver: either the heap top or the virtual arrival
  /// of the seeded-record cursor, whichever sorts first under Event's order.
  struct PendingEvent {
    Event event;
    bool from_cursor;
  };

  /// Fork copy (fork_for_arrival): clone `other` mid-run with the seeded
  /// arrival cursor capped at `target`; all copied state is O(queue depth).
  SimulationEngine(const SimulationEngine& other, JobId target);

  struct RunningState {
    JobId id;
    Time actual_end;  ///< when the job completes if never killed
  };

  bool is_fork() const { return arrival_limit_ != kInvalidJob; }

  void advance_accounting(Time to);
  /// Returns the number of snapshot waiting entries it recorded (0 when
  /// snapshots are off).
  std::size_t deliver_arrival(JobId id);
  void deliver_completion(JobId id, Time finish, bool killed);
  /// Record `id`'s arrival snapshot: fairshare_order_'s prefix up to and
  /// including `slot`, the entry `id` was just inserted at. Returns that
  /// prefix's length.
  std::size_t record_snapshot(JobId id, std::vector<SnapshotWaiting>::const_iterator slot);
  /// The waiting-set entry of `id`, keyed with its owner's usage now.
  SnapshotWaiting waiting_entry(JobId id) const;
  /// Re-key fairshare_order_ to the current published usage and re-sort it,
  /// if the fairshare epoch moved since it was last keyed.
  void refresh_fairshare_order();
  /// Remove `id` from fairshare_order_, found by binary search. Throws
  /// std::logic_error if `id` is not waiting.
  void fairshare_order_erase(JobId id);
  void start_job(JobId id);
  void handle_wcl_check(JobId id);
  void schedule_timer(Time at);

  // Start times live in the dense record table on a master engine. A fork
  // has no record table (copying it is what made fork cost O(arrival
  // index)) and keeps only its target's start, in fork_target_start_; it
  // answers for no other id.
  Time record_start(JobId id) const;
  void set_record_start(JobId id, Time at);

  /// The shared event loop. It first finishes an instant that still owes
  /// its pass (a fork taken mid-instant); `hook` (may be null) fires before
  /// each arrival; when
  /// `run_until` is a valid record id the loop returns as soon as that
  /// record has started (fork draining) instead of draining the heap.
  void run_loop(const ArrivalHook* hook, JobId run_until);

  // Event heap primitives (min-heap over a plain vector) plus the merged
  // heap-or-cursor view the run loop consumes.
  const Event& events_top() const { return events_.front(); }
  void push_event(const Event& event);
  void pop_event();
  std::optional<PendingEvent> peek_event() const;
  void consume_event(const PendingEvent& pending);

  Workload workload_;  ///< immutable shared view; copying it is O(1)
  EngineConfig config_;
  RuntimeLimiter limiter_;
  std::unique_ptr<Scheduler> scheduler_;
  FairshareTracker fairshare_;

  NodeCount system_size_;
  NodeCount free_nodes_;
  Time now_ = 0;
  /// Events at now_ consumed, scheduling pass not yet run. Set mid-instant,
  /// cleared at collect_starts; a fork copies it and finishes the instant.
  bool pass_owed_ = false;
  bool ran_ = false;

  std::vector<Event> events_;  ///< min-heap (std::push_heap/pop_heap, greater)
  std::set<Time> pending_timers_;
  /// Forks only: the last job of the fork's universe, whose start the fork
  /// resolves (seeded_end_ is capped at it + 1); kInvalidJob on a master.
  JobId arrival_limit_ = kInvalidJob;
  /// Seeded-arrival cursor: records [next_seeded_, seeded_end_) have not
  /// arrived yet and are delivered in record order (== (submit, id) order).
  JobId next_seeded_ = 0;
  JobId seeded_end_ = 0;

  SimulationResult result_;
  std::vector<RunningState> running_state_;   // parallel to running_view_
  std::vector<RunningView> running_view_;
  /// The waiting set: record ids not yet started, as snapshot entries in
  /// fairshare order, each keyed with its owner's published usage as of
  /// fairshare_order_epoch_. Arrivals insert and starts erase by binary
  /// search; the whole vector is re-keyed and re-sorted only after the
  /// publish epoch moved.
  std::vector<SnapshotWaiting> fairshare_order_;
  std::uint64_t fairshare_order_epoch_ = 0;
  /// Forks only: arrival_limit_'s start time (kNoTime until it starts).
  Time fork_target_start_ = kNoTime;
  NodeCount waiting_demand_ = 0;              // sum of waiting nodes
  NodeCount running_nodes_ = 0;
};

/// Convenience wrapper: build an engine and run it.
SimulationResult simulate(const Workload& workload, const EngineConfig& config);

/// Run a user-provided Scheduler implementation (the extension point for
/// custom policies; see examples/custom_policy.cpp).
SimulationResult simulate_with(const Workload& workload, const EngineConfig& config,
                               std::unique_ptr<Scheduler> scheduler);

}  // namespace psched::sim
