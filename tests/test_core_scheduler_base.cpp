// Tests of the Scheduler base-class helpers (priority ordering, running-job
// profile construction) through a minimal fixture context.

#include <gtest/gtest.h>

#include <map>

#include "core/scheduler.hpp"
#include "test_helpers.hpp"

namespace psched {
namespace {

using test::make_job;

/// Minimal SchedulerContext with directly settable state.
class FakeContext final : public SchedulerContext {
 public:
  Time now() const override { return now_; }
  NodeCount total_nodes() const override { return total_; }
  NodeCount free_nodes() const override { return free_; }
  const Job& job(JobId id) const override { return jobs_.at(static_cast<std::size_t>(id)); }
  const std::vector<RunningView>& running() const override { return running_; }
  double user_usage(UserId user) const override {
    const auto it = usage_.find(user);
    return it == usage_.end() ? 0.0 : it->second;
  }
  double mean_positive_usage() const override {
    double total = 0.0;
    std::size_t n = 0;
    for (const auto& [user, value] : usage_)
      if (value > 0.0) {
        total += value;
        ++n;
      }
    return n ? total / static_cast<double>(n) : 0.0;
  }
  std::uint64_t fairshare_epoch() const override { return epoch_; }

  /// Changes a user's usage and moves the epoch, as a decay boundary does.
  void set_usage(UserId user, double value) {
    usage_[user] = value;
    ++epoch_;
  }

  Time now_ = 0;
  NodeCount total_ = 16;
  NodeCount free_ = 16;
  std::vector<Job> jobs_;
  std::vector<RunningView> running_;
  std::map<UserId, double> usage_;  ///< write through set_usage()
  std::uint64_t epoch_ = 0;
};

/// Expose the protected helpers for testing.
class ProbeScheduler final : public Scheduler {
 public:
  std::string name() const override { return "probe"; }
  void on_submit(JobId) override {}
  void on_complete(JobId) override {}
  void collect_starts(std::vector<JobId>&) override {}

  using Scheduler::add_running_to_profile;
  using Scheduler::sorted_by_priority;
};

/// A policy that keeps the base's wait queue, with its accessors exposed.
class QueueProbe final : public Scheduler {
 public:
  std::string name() const override { return "queue-probe"; }
  void collect_starts(std::vector<JobId>&) override {}

  using Scheduler::dequeue;
  using Scheduler::waiting;
  using Scheduler::waiting_by_priority;
};

class SchedulerBaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_.jobs_.push_back(make_job(10, 100, 2, /*user=*/0));  // id 0
    ctx_.jobs_.push_back(make_job(20, 100, 2, /*user=*/1));  // id 1
    ctx_.jobs_.push_back(make_job(20, 100, 2, /*user=*/2));  // id 2 (tie with 1)
    for (std::size_t i = 0; i < ctx_.jobs_.size(); ++i)
      ctx_.jobs_[i].id = static_cast<JobId>(i);
    probe_.attach(ctx_);
  }

  FakeContext ctx_;
  ProbeScheduler probe_;
};

TEST_F(SchedulerBaseTest, UnattachedSchedulerThrows) {
  ProbeScheduler detached;
  Profile profile(4, 0);
  EXPECT_THROW(detached.add_running_to_profile(profile), std::logic_error);
  // A single-element sort never invokes the comparator; two elements do.
  std::vector<JobId> ids{0, 1};
  EXPECT_THROW(detached.sorted_by_priority(ids, PriorityKind::Fcfs), std::logic_error);
}

TEST_F(SchedulerBaseTest, FcfsPriorityOrdersBySubmitThenId) {
  const auto order = probe_.sorted_by_priority({2, 1, 0}, PriorityKind::Fcfs);
  EXPECT_EQ(order, (std::vector<JobId>{0, 1, 2}));
}

TEST_F(SchedulerBaseTest, FairsharePriorityOrdersByUsage) {
  ctx_.set_usage(0, 5000.0);  // user 0 heavy
  ctx_.set_usage(1, 10.0);
  ctx_.set_usage(2, 100.0);
  const auto order = probe_.sorted_by_priority({0, 1, 2}, PriorityKind::Fairshare);
  EXPECT_EQ(order, (std::vector<JobId>{1, 2, 0}));
}

TEST_F(SchedulerBaseTest, FairshareTiesFallBackToSubmit) {
  // All users unknown (usage 0): fairshare degenerates to FCFS.
  const auto order = probe_.sorted_by_priority({2, 0, 1}, PriorityKind::Fairshare);
  EXPECT_EQ(order, (std::vector<JobId>{0, 1, 2}));
}

TEST_F(SchedulerBaseTest, TiedUsageSortsTheSameFromEitherInputOrder) {
  // Users 1 and 2 tie on usage and their jobs on submit time, so only the id
  // separates them; user 0 is heavier and goes last.
  ctx_.set_usage(0, 5.0);
  ctx_.set_usage(1, 1.0);
  ctx_.set_usage(2, 1.0);
  const std::vector<JobId> expected{1, 2, 0};
  EXPECT_EQ(probe_.sorted_by_priority({0, 1, 2}, PriorityKind::Fairshare), expected);
  EXPECT_EQ(probe_.sorted_by_priority({2, 1, 0}, PriorityKind::Fairshare), expected);
}

TEST_F(SchedulerBaseTest, QueueStaysInOrderWithinAnEpoch) {
  ctx_.jobs_.push_back(make_job(30, 100, 2, /*user=*/3));  // id 3
  ctx_.jobs_.back().id = 3;
  ctx_.set_usage(0, 50.0);
  ctx_.set_usage(1, 10.0);
  ctx_.set_usage(2, 30.0);
  ctx_.set_usage(3, 20.0);
  QueueProbe queue;
  queue.attach(ctx_);
  queue.on_submit(0);
  queue.on_submit(1);
  queue.on_submit(2);
  // Nothing sorted yet: arrivals are appended.
  EXPECT_EQ(queue.waiting(), (std::vector<JobId>{0, 1, 2}));
  EXPECT_EQ(queue.waiting_by_priority(PriorityKind::Fairshare), (std::vector<JobId>{1, 2, 0}));

  // Same epoch: the arrival lands at its slot with no further sort, and a
  // removal keeps the rest in order.
  queue.on_submit(3);
  EXPECT_EQ(queue.waiting(), (std::vector<JobId>{1, 3, 2, 0}));
  const std::vector<JobId> started{2};
  queue.dequeue(started);
  EXPECT_EQ(queue.waiting(), (std::vector<JobId>{1, 3, 0}));

  // A new epoch: the next arrival is appended and the next read re-sorts
  // under the new usage.
  ctx_.set_usage(0, 1.0);
  queue.on_submit(2);
  EXPECT_EQ(queue.waiting(), (std::vector<JobId>{1, 3, 0, 2}));
  EXPECT_EQ(queue.waiting_by_priority(PriorityKind::Fairshare),
            (std::vector<JobId>{0, 1, 3, 2}));
  // The FCFS order never depends on usage.
  EXPECT_EQ(queue.waiting_by_priority(PriorityKind::Fcfs), (std::vector<JobId>{0, 1, 2, 3}));
  ctx_.set_usage(3, 0.0);
  queue.dequeue(started);
  queue.on_submit(2);
  EXPECT_EQ(queue.waiting(), (std::vector<JobId>{0, 1, 2, 3}));
}

TEST_F(SchedulerBaseTest, RunningProfileUsesEstimatedEnds) {
  ctx_.now_ = 100;
  ctx_.running_.push_back({0, 4, 50, 150});   // ends (per WCL) at 150
  ctx_.running_.push_back({1, 8, 10, 90});    // over-running: est_end < now
  Profile profile(ctx_.total_nodes(), ctx_.now_);
  probe_.add_running_to_profile(profile);
  // At "now" both jobs occupy nodes (the over-runner is clamped forward).
  EXPECT_EQ(profile.free_at(100), 16 - 4 - 8);
  // After 150 only the over-runner's grace extension can remain.
  EXPECT_GE(profile.free_at(10'000), 12);
}

TEST_F(SchedulerBaseTest, OverrunGraceGrowsWithElapsedOverrun) {
  // The longer a job has over-run, the further out the profile assumes it
  // will run (exponential-backoff style), keeping timer storms bounded.
  ctx_.now_ = 10'000;
  ctx_.running_.push_back({0, 4, 0, 1'000});  // over-run by 9000 s
  Profile profile(ctx_.total_nodes(), ctx_.now_);
  probe_.add_running_to_profile(profile);
  EXPECT_LT(profile.free_at(10'000 + 8'000), 16);  // still assumed busy
  EXPECT_EQ(profile.free_at(10'000 + 10'000), 16); // released by then
}

}  // namespace
}  // namespace psched
