// Property-based sweeps: global invariants checked across the full policy
// matrix x random workload seeds (parameterized gtest).

#include <gtest/gtest.h>

#include "metrics/fst.hpp"
#include "metrics/loc.hpp"
#include "metrics/standard.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

struct PropertyCase {
  PolicyKind kind;
  PriorityKind priority;
  std::uint64_t seed;
  const char* label;
};

std::ostream& operator<<(std::ostream& os, const PropertyCase& c) {
  return os << c.label << "_seed" << c.seed;
}

class PolicyProperties : public ::testing::TestWithParam<PropertyCase> {
 protected:
  static SimulationResult run_case(const PropertyCase& c) {
    const Workload w = workload::generate_small_workload(c.seed, 220, 48, days(5));
    sim::EngineConfig config;
    config.policy.kind = c.kind;
    config.policy.priority = c.priority;
    return sim::simulate(w, config);
  }
};

TEST_P(PolicyProperties, AllJobsCompleteExactlyOnce) {
  const SimulationResult r = run_case(GetParam());
  EXPECT_EQ(r.records.size(), 220u);
  test::expect_complete_and_causal(r);
}

TEST_P(PolicyProperties, MachineNeverOverallocated) {
  const SimulationResult r = run_case(GetParam());
  test::expect_no_overallocation(r);
}

TEST_P(PolicyProperties, MetricsWithinPhysicalBounds) {
  const SimulationResult r = run_case(GetParam());
  const metrics::StandardMetrics m = metrics::compute_standard(r);
  EXPECT_GT(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0 + 1e-9);
  EXPECT_GE(m.loss_of_capacity, 0.0);
  EXPECT_LE(m.loss_of_capacity, 1.0);
  EXPECT_GE(m.avg_wait, 0.0);
  EXPECT_GE(m.avg_turnaround, m.avg_wait);
  EXPECT_GE(m.avg_bounded_slowdown, 1.0);
}

TEST_P(PolicyProperties, LocIntegralMatchesIndependentSweep) {
  const SimulationResult r = run_case(GetParam());
  EXPECT_NEAR(metrics::recompute_loc_integral(r), r.loc_proc_seconds, 1e-6);
  EXPECT_NEAR(metrics::recompute_busy_integral(r), r.busy_proc_seconds, 1e-6);
}

TEST_P(PolicyProperties, FstNeverBeforeSubmit) {
  const SimulationResult r = run_case(GetParam());
  metrics::FstOptions options;
  options.knowledge = metrics::FstKnowledge::Perfect;
  const metrics::FstResult f = metrics::hybrid_fairshare_fst(r, options);
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    EXPECT_GE(f.fair_start[i], r.records[i].job.submit);
    EXPECT_GE(f.miss[i], 0);
  }
}

TEST_P(PolicyProperties, SnapshotWaitingContainsSelf) {
  const SimulationResult r = run_case(GetParam());
  for (const ArrivalSnapshot& snapshot : r.snapshots) {
    NodeCount running_total = 0;
    for (const SnapshotRunning& run : snapshot.running) running_total += run.nodes;
    // The arriving job closes its own snapshot's waiting list.
    ASSERT_FALSE(snapshot.waiting.empty()) << "snapshot " << snapshot.id;
    EXPECT_EQ(snapshot.waiting.back().id, snapshot.id);
    EXPECT_LE(running_total, r.system_size);
  }
}

constexpr PropertyCase kCases[] = {
    {PolicyKind::Fcfs, PriorityKind::Fcfs, 101, "fcfs"},
    {PolicyKind::Fcfs, PriorityKind::Fcfs, 202, "fcfs"},
    {PolicyKind::Easy, PriorityKind::Fcfs, 101, "easy"},
    {PolicyKind::Easy, PriorityKind::Fairshare, 202, "easy_fs"},
    {PolicyKind::Cplant, PriorityKind::Fairshare, 101, "cplant"},
    {PolicyKind::Cplant, PriorityKind::Fairshare, 202, "cplant"},
    {PolicyKind::Cplant, PriorityKind::Fairshare, 303, "cplant"},
    {PolicyKind::Conservative, PriorityKind::Fcfs, 101, "cons_fcfs"},
    {PolicyKind::Conservative, PriorityKind::Fairshare, 202, "cons_fs"},
    {PolicyKind::Conservative, PriorityKind::Fairshare, 303, "cons_fs"},
    {PolicyKind::ConservativeDynamic, PriorityKind::Fairshare, 101, "consdyn"},
    {PolicyKind::ConservativeDynamic, PriorityKind::Fairshare, 202, "consdyn"},
    {PolicyKind::Depth, PriorityKind::Fairshare, 101, "depth"},
    {PolicyKind::Depth, PriorityKind::Fcfs, 202, "depth_fcfs"},
};

INSTANTIATE_TEST_SUITE_P(PolicyMatrix, PolicyProperties, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<PropertyCase>& param_info) {
                           return std::string(param_info.param.label) + "_seed" +
                                  std::to_string(param_info.param.seed);
                         });

// ---------------------------------------------------------------------------
// Cross-policy dominance properties on a shared workload.

class SchedulingDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulingDominance, EasyNeverWorseThanFcfsOnMakespan) {
  const Workload w = workload::generate_small_workload(GetParam(), 200, 32, days(4));
  const SimulationResult fcfs = test::run_policy(w, PolicyKind::Fcfs);
  const SimulationResult easy = test::run_policy(w, PolicyKind::Easy);
  // Backfilling can only tighten the packing of the same job set under FCFS
  // priority with a single head reservation.
  EXPECT_LE(easy.makespan(), fcfs.makespan() + 1);
}

TEST_P(SchedulingDominance, ConservativeRespectsArrivalGuarantee) {
  // Static conservative: a job's final start is never later than the very
  // first reservation it could have been given (machine drained of all
  // earlier WCL usage) -- checked via the no-later-than-WCL-profile bound:
  // start <= submit + sum of all earlier jobs' WCL (a loose but sound bound).
  const Workload w = workload::generate_small_workload(GetParam() + 7, 150, 32, days(4));
  const SimulationResult r = test::run_policy(w, PolicyKind::Conservative);
  Time wcl_prefix = 0;
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    wcl_prefix += r.records[i].job.wcl;
    EXPECT_LE(r.records[i].start, r.records[i].job.submit + wcl_prefix);
  }
}

TEST_P(SchedulingDominance, WorkConservationOfNoGuarantee) {
  // Pure no-guarantee backfilling is work-conserving at queue granularity:
  // whenever a job waits, either the machine cannot hold it right then or
  // it just arrived at this instant. We verify via LOC: a narrow job (1
  // node) must never wait while a node is idle, so LOC contributed by
  // 1-node-only queues is zero. Approximate check: simulate a 1-node-only
  // workload and expect LOC == 0.
  std::vector<Job> jobs;
  util::Rng rng(GetParam());
  for (int i = 0; i < 120; ++i)
    jobs.push_back(test::make_job(rng.uniform_int(0, days(1)), rng.uniform_int(60, hours(3)), 1,
                                  static_cast<UserId>(rng.uniform_int(0, 5))));
  const Workload w = test::make_workload(8, std::move(jobs));
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;
  config.policy.starvation_delay = kNoTime;
  const SimulationResult r = sim::simulate(w, config);
  EXPECT_DOUBLE_EQ(r.loc_proc_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulingDominance, ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------------------------------------------------------------
// Fairshare decay sweep: priorities always rank a heavier user below a
// lighter one immediately after a boundary, for any decay factor.

class DecaySweep : public ::testing::TestWithParam<double> {};

TEST_P(DecaySweep, HeavierUserRanksLower) {
  FairshareTracker t(GetParam(), days(1));
  t.on_job_start(0, 8);
  t.on_job_start(1, 2);
  t.advance(days(1));
  EXPECT_GT(t.usage(0), t.usage(1));
  t.on_job_stop(0, 8);
  t.on_job_stop(1, 2);
  // Relative order persists through pure decay.
  t.advance(days(5));
  EXPECT_GT(t.usage(0), t.usage(1));
}

INSTANTIATE_TEST_SUITE_P(Factors, DecaySweep, ::testing::Values(0.25, 0.5, 0.9, 0.99, 1.0));

}  // namespace
}  // namespace psched
