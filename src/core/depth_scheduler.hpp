#pragma once
// Reservation-depth backfilling (paper section 1: "Many production
// schedulers use variations between conservative and aggressive backfilling,
// giving the first n jobs in the queue a reservation").
//
// At every scheduling event the first `depth` jobs in priority order receive
// reservations (computed in that order); any other job may start immediately
// if it violates none of them. depth == 1 is EASY / aggressive backfilling
// (PolicyKind::Easy builds exactly this scheduler); a depth large enough to
// cover the queue is conservative backfilling with dynamic reservations
// (paper section 5.4; PolicyKind::ConservativeDynamic builds this scheduler
// at depth INT_MAX): every reservation is replanned each event, not sticky.

#include <optional>

#include "core/scheduler.hpp"

namespace psched {

struct DepthConfig {
  PriorityKind priority = PriorityKind::Fairshare;
  int reservation_depth = 4;  ///< >= 1
};

class DepthScheduler final : public Scheduler {
 public:
  explicit DepthScheduler(DepthConfig config);

  std::string name() const override;
  void collect_starts(std::vector<JobId>& starts) override;
  std::optional<Time> next_wakeup() const override { return wakeup_; }
  std::unique_ptr<Scheduler> clone() const override { return cloned(*this); }

 private:
  DepthConfig config_;
  std::optional<Time> wakeup_;  ///< earliest reservation of the last pass
};

}  // namespace psched
