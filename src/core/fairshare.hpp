#pragma once
// The Sandia "fairshare" queuing priority (paper section 2.1): a historical
// sum of processor-seconds used per user that decays on a regular basis
// (every 24 hours on CPlant). Users with *lower* decayed usage get *higher*
// queue priority, so users who have not recently used the machine go first.
//
// The tracker accrues usage continuously while jobs run: the simulation
// engine calls advance() at every event boundary, and the tracker integrates
// running-processor counts over the elapsed interval, applying the decay at
// each period boundary it crosses. The *published* priority value refreshes
// only at those boundaries, as production fairshare systems recompute
// priorities on the decay schedule (a daily batch on CPlant), so queue order
// is stable between refreshes.

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace psched {

class FairshareTracker {
 public:
  /// decay_factor in (0, 1]: multiplier applied to all usage at each period
  /// boundary (1.0 disables decay and degenerates to total historical usage).
  FairshareTracker(double decay_factor, Time decay_period, Time start_time = 0);

  /// Move the clock to `to` (>= now()): accrue usage for running processors
  /// and apply decay at each crossed period boundary.
  void advance(Time to);

  /// A job of `user` started/stopped using `nodes` processors at now().
  void on_job_start(UserId user, NodeCount nodes);
  void on_job_stop(UserId user, NodeCount nodes);

  Time now() const { return now_; }

  /// Published decayed processor-seconds of `user` (the queuing priority
  /// value; lower goes first), as computed at the most recent decay
  /// boundary. Unknown users have 0.
  double usage(UserId user) const;

  /// Instantaneous decayed usage, accrued up to now() (metrics/tests).
  double live_usage(UserId user) const;

  /// Mean published usage over users with positive published usage; 0 if
  /// none. Used by the "bar heavy users from the starvation queue" policy.
  double mean_positive_usage() const;

  /// Number of distinct users ever observed.
  std::size_t user_count() const { return users_.size(); }

  /// Sum of currently running processors (accrual-rate sanity checks).
  NodeCount running_processors() const { return total_running_; }

 private:
  struct UserState {
    double usage = 0.0;      // live decayed proc-seconds
    double published = 0.0;  // value exposed as the queue priority
    NodeCount running = 0;
  };

  void accrue(Time dt);
  UserState& state(UserId user);

  double decay_factor_;
  Time decay_period_;
  Time now_;
  Time next_decay_;
  NodeCount total_running_ = 0;
  std::vector<UserState> users_;  // dense by UserId
};

}  // namespace psched
