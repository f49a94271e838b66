// Determinism tests: both conservative policies must produce a byte-identical
// schedule to the original per-event-rebuild algorithm — static conservative
// through its incremental replanner, dynamic reservations through the
// unbounded-depth DepthScheduler that PolicyKind::ConservativeDynamic builds.
//
// ReferenceConservativeScheduler below is a verbatim copy of the seed
// implementation (fresh profile + full reseat + improvement pass, or a full
// priority-order replan in dynamic mode, at every scheduling event), running
// on the preserved ReferenceProfile. Both
// schedulers are driven over the same generated workloads — including
// under-estimating jobs (over-runners), fairshare priority reshuffles,
// runtime-limit segmentation and WCL kills — and every record's start and
// finish must match exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>

#include "core/reference_profile.hpp"
#include "core/scheduler.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

/// The seed conservative scheduler, byte-for-byte (modulo running on
/// ReferenceProfile): rebuilds the availability profile and re-seats every
/// reservation at every scheduling event.
class ReferenceConservativeScheduler final : public Scheduler {
 public:
  ReferenceConservativeScheduler(PriorityKind priority, bool dynamic)
      : priority_(priority), dynamic_(dynamic) {}

  std::string name() const override { return "cons.reference"; }

  void on_submit(JobId id) override {
    waiting_.push_back(id);
    reservations_.emplace(id, kNoTime);
  }

  void on_complete(JobId) override {}

  void collect_starts(std::vector<JobId>& starts) override {
    wakeup_.reset();
    const Time now = ctx().now();
    reference::ReferenceProfile profile(ctx().total_nodes(), now);
    for (const RunningView& r : ctx().running()) {
      Time end = r.est_end;
      if (end <= now) end = now + std::max<Time>(kOverrunGrace, now - r.est_end);
      profile.add_usage(now, end, r.nodes);
    }
    replan(profile, now);

    NodeCount free = ctx().free_nodes();
    std::optional<Time> wake;
    for (const JobId id : sorted_by_priority(waiting_, priority_)) {
      const Time start = reservations_.at(id);
      if (start <= now) {
        const Job& job = ctx().job(id);
        if (job.nodes > free)
          throw std::logic_error("reference cons: reservation due but nodes not free");
        starts.push_back(id);
        free -= job.nodes;
        reservations_.erase(id);
        waiting_.erase(std::find(waiting_.begin(), waiting_.end(), id));
      } else if (!wake || start < *wake) {
        wake = start;
      }
    }
    wakeup_ = wake;
  }

  std::optional<Time> next_wakeup() const override { return wakeup_; }

 private:
  void replan(reference::ReferenceProfile& profile, Time now) {
    if (dynamic_) {
      for (const JobId id : sorted_by_priority(waiting_, priority_)) {
        const Job& job = ctx().job(id);
        const Time start = profile.earliest_fit(now, job.wcl, job.nodes);
        profile.add_usage(start, start + job.wcl, job.nodes);
        reservations_[id] = start;
      }
      return;
    }

    std::vector<JobId> seat_order = waiting_;
    std::sort(seat_order.begin(), seat_order.end(), [&](JobId a, JobId b) {
      const Time ra = reservations_.at(a);
      const Time rb = reservations_.at(b);
      const Time ka = ra == kNoTime ? std::numeric_limits<Time>::max() : ra;
      const Time kb = rb == kNoTime ? std::numeric_limits<Time>::max() : rb;
      if (ka != kb) return ka < kb;
      return a < b;
    });
    for (const JobId id : seat_order) {
      const Job& job = ctx().job(id);
      const Time stored = reservations_.at(id);
      const Time from = stored == kNoTime ? now : std::max(stored, now);
      const Time start = profile.earliest_fit(from, job.wcl, job.nodes);
      profile.add_usage(start, start + job.wcl, job.nodes);
      reservations_[id] = start;
    }

    for (const JobId id : sorted_by_priority(waiting_, priority_)) {
      const Job& job = ctx().job(id);
      const Time current = reservations_.at(id);
      profile.remove_usage(current, current + job.wcl, job.nodes);
      const Time improved = profile.earliest_fit(now, job.wcl, job.nodes);
      const Time chosen = improved < current ? improved : current;
      profile.add_usage(chosen, chosen + job.wcl, job.nodes);
      reservations_[id] = chosen;
    }
  }

  PriorityKind priority_;
  bool dynamic_;
  std::vector<JobId> waiting_;
  std::unordered_map<JobId, Time> reservations_;
  std::optional<Time> wakeup_;
};

void expect_identical_schedules(const SimulationResult& a, const SimulationResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_EQ(a.records[i].start, b.records[i].start) << "record " << i;
    ASSERT_EQ(a.records[i].finish, b.records[i].finish) << "record " << i;
    ASSERT_EQ(a.records[i].killed_at_wcl, b.records[i].killed_at_wcl) << "record " << i;
  }
  EXPECT_EQ(a.first_start, b.first_start);
  EXPECT_EQ(a.last_finish, b.last_finish);
  EXPECT_DOUBLE_EQ(a.busy_proc_seconds, b.busy_proc_seconds);
  EXPECT_DOUBLE_EQ(a.loc_proc_seconds, b.loc_proc_seconds);
}

void run_and_compare(const Workload& workload, bool dynamic, PriorityKind priority,
                     sim::EngineConfig base = {}) {
  base.policy.kind = dynamic ? PolicyKind::ConservativeDynamic : PolicyKind::Conservative;
  base.policy.priority = priority;
  const SimulationResult optimized = sim::simulate(workload, base);
  const SimulationResult reference = sim::simulate_with(
      workload, base,
      std::make_unique<ReferenceConservativeScheduler>(priority, dynamic));
  expect_identical_schedules(optimized, reference);
}

TEST(SchedulerDeterminism, StaticConservativeMatchesSeedAlgorithm) {
  for (const std::uint64_t seed : {11u, 12u}) {
    const Workload w = workload::generate_small_workload(seed, 400, 128, days(10));
    run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare);
    run_and_compare(w, /*dynamic=*/false, PriorityKind::Fcfs);
  }
}

TEST(SchedulerDeterminism, DynamicConservativeMatchesSeedAlgorithm) {
  for (const std::uint64_t seed : {21u, 22u}) {
    const Workload w = workload::generate_small_workload(seed, 400, 128, days(10));
    run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare);
    run_and_compare(w, /*dynamic=*/true, PriorityKind::Fcfs);
  }
}

TEST(SchedulerDeterminism, HeavyLoadSmallMachine) {
  // A saturated machine maximizes queue depth, reservation churn and
  // compression cascades.
  const Workload w = workload::generate_small_workload(31, 500, 32, days(5));
  run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare);
}

TEST(SchedulerDeterminism, WithRuntimeLimitSegmentation) {
  sim::EngineConfig config;
  config.policy.max_runtime = hours(12);
  const Workload w = workload::generate_small_workload(41, 300, 64, days(7));
  run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare, config);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare, config);
}

TEST(SchedulerDeterminism, WithWclKills) {
  sim::EngineConfig config;
  config.wcl_enforcement = sim::WclEnforcement::KillIfNeeded;
  const Workload w = workload::generate_small_workload(51, 300, 64, days(7));
  run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare, config);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare, config);
}

TEST(SchedulerDeterminism, WithWclHardLimit) {
  sim::EngineConfig config;
  config.wcl_enforcement = sim::WclEnforcement::Always;
  const Workload w = workload::generate_small_workload(71, 300, 64, days(7));
  run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare, config);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare, config);
}

TEST(SchedulerDeterminism, ChainedSegments) {
  sim::EngineConfig config;
  config.policy.max_runtime = hours(8);
  config.segment_arrival = sim::SegmentArrival::Chained;
  const Workload w = workload::generate_small_workload(61, 250, 64, days(7));
  run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare, config);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare, config);
}

}  // namespace
}  // namespace psched
