#pragma once
// Conservative backfilling (paper section 5.3). Conservative backfilling with
// dynamic reservations (section 5.4) rebuilds every reservation in priority
// order at each event, which is reservation-depth backfilling at unbounded
// depth: PolicyKind::ConservativeDynamic is a DepthScheduler (see
// depth_scheduler.hpp), not this class.
//
// Every job receives an internal reservation on arrival (the earliest slot
// that delays nobody). At each scheduling event the queue is processed in
// fairshare priority order and each job may *improve* its reservation — it
// never gives one up unless the new slot is strictly earlier, so
// arrival-time reservations are upper bounds on wait time and no starvation
// queue is needed.
//
// Implementation note — incremental replanning. The observable behavior is
// exactly the naive per-event rebuild described above (the determinism test
// in tests/test_sched_determinism.cpp checks this against a verbatim copy of
// the original algorithm), but the planned-schedule profile is kept alive
// across events and updated in place:
//   * an arrival seats only the new job;
//   * a completion returns the completed job's planned usage and triggers a
//     compression pass, which is skipped once the plan reaches a fixed point
//     (no capacity freed and the previous pass moved nothing — provably a
//     no-op);
//   * a full rebuild happens whenever a running job over-runs its estimate
//     (the assumed over-run horizon then changes every event).

#include <optional>
#include <unordered_map>

#include "core/scheduler.hpp"

namespace psched {

class ConservativeScheduler final : public Scheduler {
 public:
  explicit ConservativeScheduler(PriorityKind priority);

  std::string name() const override;
  void on_submit(JobId id) override;
  void on_complete(JobId id) override;
  void collect_starts(std::vector<JobId>& starts) override;
  std::optional<Time> next_wakeup() const override;
  /// Copies the whole incremental-planning state — the persistent plan
  /// `Profile` (its value semantics are pinned by
  /// ProfileDeep.CopyIsIndependentAndMatchesReference), reservations,
  /// pending event queues and the fixed-point compression flags — so a fork
  /// replans byte-identically to the original from the clone point on.
  std::unique_ptr<Scheduler> clone() const override { return cloned(*this); }

 private:
  /// Rebuild the plan profile and all reservations from scratch for "now"
  /// (the pre-optimization per-event behavior): each stored slot is kept
  /// unless an improvement (searched in priority order) is strictly earlier.
  void full_replan(Time now);

  /// Apply this event's arrivals/completions to the persistent plan without
  /// reseating unaffected reservations. Returns false if the plan cannot be
  /// patched (caller falls back to full_replan).
  bool incremental_replan(Time now);

  /// Seed running-job usage into a freshly reset plan profile; fills
  /// planned_end_.
  void seed_running_usage(Time now);

  /// One compression round: in priority order, each job moves to a strictly
  /// earlier slot if one exists. Updates compress_active_/capacity_freed_.
  void compression_pass(Time now);

  PriorityKind priority_;
  std::unordered_map<JobId, Time> reservations_;  // stored starts (kNoTime = new)
  std::optional<Time> wakeup_;

  // --- persistent planning state (incremental replanning) -------------------
  std::optional<Profile> plan_;  ///< running usage + all reservations
  bool plan_valid_ = false;      ///< plan_ mirrors the last event's schedule
  /// Assumed end of each running job's usage inside plan_.
  std::unordered_map<JobId, Time> planned_end_;
  std::vector<JobId> pending_arrivals_;     ///< submitted since last event
  std::vector<JobId> pending_completions_;  ///< completed since last event
  /// A completion freed future capacity since the last compression pass.
  bool capacity_freed_ = false;
  /// The last compression pass moved at least one reservation (so the next
  /// one may cascade further and cannot be skipped).
  bool compress_active_ = false;
  /// Scratch: priority order of the wait queue computed during this event's
  /// replan (compression pass), reusable by the launch loop.
  std::vector<JobId> priority_order_;
  bool order_fresh_ = false;  ///< priority_order_ matches waiting() right now
};

}  // namespace psched
