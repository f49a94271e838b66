// Differential test of the scheduler base's sorted wait queue: the queue is
// sorted once per fairshare epoch and kept in order by binary-search
// insertion and order-preserving removal, so at every scheduling pass of
// every policy it must equal a fresh full sort of the same jobs. Random
// workloads (util::Rng) span days, so passes cross many decay boundaries;
// forks taken mid-run check their cloned queue the same way.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/scheduler.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace psched {
namespace {

/// The protected queue accessors of any Scheduler, through member pointers
/// named via this derived class (protected access is checked against the
/// naming class, so the pointers apply to every Scheduler object).
struct QueueAccess : Scheduler {
  static const std::vector<JobId>& waiting_of(const Scheduler& s) {
    return (s.*(&QueueAccess::waiting))();
  }
  static const std::vector<JobId>& by_priority(Scheduler& s, PriorityKind kind) {
    return (s.*(&QueueAccess::waiting_by_priority))(kind);
  }
  static std::vector<JobId> full_sort(const Scheduler& s, std::vector<JobId> ids,
                                      PriorityKind kind) {
    return (s.*(&QueueAccess::sorted_by_priority))(std::move(ids), kind);
  }
};

struct CheckLog {
  std::size_t checks = 0;
  std::uint64_t max_epoch = 0;
};

/// Forwards to a real policy and, around each of its passes, compares the
/// policy's queue in priority order against a full sort of it.
class CheckedScheduler final : public Scheduler {
 public:
  CheckedScheduler(std::unique_ptr<Scheduler> inner, PriorityKind kind, CheckLog& log)
      : inner_(std::move(inner)), kind_(kind), log_(&log) {}

  std::string name() const override { return inner_->name(); }
  void on_submit(JobId id) override {
    bind();
    inner_->on_submit(id);
  }
  void on_complete(JobId id) override {
    bind();
    inner_->on_complete(id);
  }
  void collect_starts(std::vector<JobId>& starts) override {
    bind();
    check("before the pass");
    inner_->collect_starts(starts);
    check("after the pass");
  }
  std::optional<Time> next_wakeup() const override { return inner_->next_wakeup(); }
  std::unique_ptr<Scheduler> clone() const override {
    return std::make_unique<CheckedScheduler>(inner_->clone(), kind_, *log_);
  }

 private:
  /// attach() is not virtual: attach the policy to this wrapper's context
  /// on first use (a clone is attached by its fork's engine).
  void bind() {
    if (bound_for_ == &ctx()) return;
    inner_->attach(ctx());
    bound_for_ = &ctx();
  }

  void check(const char* when) {
    const std::vector<JobId> expected =
        QueueAccess::full_sort(*inner_, QueueAccess::waiting_of(*inner_), kind_);
    EXPECT_EQ(QueueAccess::by_priority(*inner_, kind_), expected)
        << inner_->name() << " at t=" << ctx().now() << ", " << when;
    ++log_->checks;
    log_->max_epoch = std::max(log_->max_epoch, ctx().fairshare_epoch());
  }

  std::unique_ptr<Scheduler> inner_;
  PriorityKind kind_;
  CheckLog* log_;
  const SchedulerContext* bound_for_ = nullptr;
};

/// Jobs over ~10 days with a handful of users (equal usage is common), a
/// third of them sharing their predecessor's submit time, and some
/// under-estimated wall clock limits (the over-run paths).
Workload random_workload(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Job> jobs;
  Time submit = 0;
  for (int i = 0; i < 160; ++i) {
    if (rng.uniform01() > 0.35) submit += rng.uniform_int(0, hours(3));
    const Time runtime = rng.uniform_int(60, hours(20));
    const Time wcl = rng.uniform01() < 0.2 ? std::max<Time>(1, runtime / 2)
                                           : runtime * rng.uniform_int(1, 3);
    const auto nodes = static_cast<NodeCount>(rng.uniform_int(1, 24));
    const auto user = static_cast<UserId>(rng.uniform_int(0, 5));
    jobs.push_back(test::make_job(submit, runtime, nodes, user, wcl));
  }
  return test::make_workload(32, std::move(jobs));
}

struct PolicyCase {
  const char* label;
  PolicyConfig config;
};

std::vector<PolicyCase> policy_cases() {
  std::vector<PolicyCase> cases;
  for (const PriorityKind priority : {PriorityKind::Fairshare, PriorityKind::Fcfs}) {
    const bool fair = priority == PriorityKind::Fairshare;
    PolicyConfig base;
    base.priority = priority;
    PolicyConfig fcfs = base, depth1 = base, depth4 = base, depth_inf = base, cplant = base,
                 cons = base;
    fcfs.kind = PolicyKind::Fcfs;
    depth1.kind = PolicyKind::Easy;
    depth4.kind = PolicyKind::Depth;
    depth4.reservation_depth = 4;
    depth_inf.kind = PolicyKind::ConservativeDynamic;
    cplant.kind = PolicyKind::Cplant;
    cplant.starvation_delay = hours(6);  // short, so the starvation queue fills
    cplant.bar_heavy_users = true;
    cplant.heavy_user_factor = 1.5;
    cons.kind = PolicyKind::Conservative;
    cases.push_back({fair ? "fcfs.fairshare" : "fcfs", fcfs});
    cases.push_back({fair ? "depth1.fairshare" : "depth1", depth1});
    cases.push_back({fair ? "depth4.fairshare" : "depth4", depth4});
    cases.push_back({fair ? "depthinf.fairshare" : "depthinf", depth_inf});
    cases.push_back({fair ? "cplant.fairshare" : "cplant", cplant});
    cases.push_back({fair ? "cons.fairshare" : "cons", cons});
  }
  return cases;
}

TEST(SchedulerQueueOrder, EveryPassSeesTheFullSortOrder) {
  for (const PolicyCase& policy : policy_cases()) {
    for (const std::uint64_t seed : {11u, 23u, 37u}) {
      SCOPED_TRACE(std::string(policy.label) + " seed " + std::to_string(seed));
      const Workload workload = random_workload(seed);
      sim::EngineConfig config;
      config.policy = policy.config;
      config.record_snapshots = false;
      CheckLog log;
      sim::SimulationEngine engine(
          workload, config,
          std::make_unique<CheckedScheduler>(make_scheduler(config.policy),
                                             config.policy.priority, log));

      // Fork mid-run every 20th arrival and drain the fork to its target:
      // the cloned queue must stay in order under the fork's own epochs.
      std::size_t forks = 0;
      const SimulationResult result = engine.run_with_arrival_hook([&](JobId id) {
        if (id == 0 || id % 20 != 0) return;
        const JobId target = id - 1;
        const std::unique_ptr<sim::SimulationEngine> fork = engine.fork_for_arrival(target);
        EXPECT_GE(fork->run_until_started(target), workload.jobs[target].submit);
        ++forks;
      });

      EXPECT_EQ(result.records.size(), workload.jobs.size());
      test::expect_complete_and_causal(result);
      EXPECT_EQ(forks, 7u);
      EXPECT_GT(log.checks, 2 * workload.jobs.size());
      EXPECT_GE(log.max_epoch, 5u) << "the run must cross several decay boundaries";
    }
  }
}

}  // namespace
}  // namespace psched
