#include "core/depth_scheduler.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

using test::make_job;
using test::make_workload;

SimulationResult run_depth(const Workload& w, int depth,
                           PriorityKind priority = PriorityKind::Fcfs) {
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::Depth;
  config.policy.reservation_depth = depth;
  config.policy.priority = priority;
  return sim::simulate(w, config);
}

TEST(DepthScheduler, RejectsBadDepth) {
  EXPECT_THROW(DepthScheduler(DepthConfig{PriorityKind::Fcfs, 0}), std::invalid_argument);
}

TEST(DepthScheduler, DeeperReservationsProtectMoreJobs) {
  // Two blocked jobs. The long backfiller J3 threads around J1's reservation
  // (6+2 = 8 fits) but would collide with J2's (7+2 > 8). At depth 1 only
  // the first blocked job is ever reserved, so J3 backfills at t=3 and
  // pushes J2 out past t=400; at depth 2, J2's reservation blocks J3.
  const Workload w = make_workload(8, {
                                          make_job(0, 100, 4),  // running until 100
                                          make_job(1, 50, 6),   // blocked: reserved [100,150)
                                          make_job(2, 60, 7),   // blocked: depth-2 res [150,210)
                                          make_job(3, 400, 2),  // long narrow backfiller
                                      });
  const SimulationResult d1 = run_depth(w, 1);
  const SimulationResult d2 = run_depth(w, 2);
  // Depth 1: J3 starts immediately and starves J2 until J3 completes at 403.
  EXPECT_EQ(d1.records[3].start, 3);
  EXPECT_GE(d1.records[2].start, 400);
  // Depth 2: J2 is protected; J3 waits behind both reservations.
  EXPECT_EQ(d2.records[2].start, 150);
  EXPECT_EQ(d2.records[3].start, 210);
}

TEST(DepthScheduler, LargeDepthMatchesDynamicConservative) {
  // A depth covering the whole queue reserves every blocked job in priority
  // order at every event, which is dynamic conservative's per-event rebuild.
  // ConservativeDynamic is built at depth INT_MAX; any depth past the queue
  // length must give the same schedule on every record, whatever the
  // priority, WCL enforcement and maximum-runtime limit.
  for (const std::uint64_t seed : {91u, 92u, 93u, 94u}) {
    const Workload w = test::stress_workload(seed);
    for (const PriorityKind priority : {PriorityKind::Fcfs, PriorityKind::Fairshare}) {
      for (const sim::WclEnforcement mode :
           {sim::WclEnforcement::Never, sim::WclEnforcement::KillIfNeeded,
            sim::WclEnforcement::Always}) {
        for (const Time max_runtime : {kNoTime, hours(72)}) {
          SCOPED_TRACE(testing::Message()
                       << "seed " << seed << " priority " << static_cast<int>(priority)
                       << " wcl " << static_cast<int>(mode) << " max " << max_runtime);
          sim::EngineConfig config;
          config.policy.kind = PolicyKind::Depth;
          config.policy.reservation_depth = 1'000'000;
          config.policy.priority = priority;
          config.policy.max_runtime = max_runtime;
          config.wcl_enforcement = mode;
          config.record_snapshots = false;
          const SimulationResult deep = sim::simulate(w, config);
          config.policy.kind = PolicyKind::ConservativeDynamic;
          const SimulationResult consdyn = sim::simulate(w, config);
          ASSERT_EQ(deep.records.size(), consdyn.records.size());
          for (std::size_t i = 0; i < deep.records.size(); ++i) {
            ASSERT_EQ(deep.records[i].start, consdyn.records[i].start) << "record " << i;
            ASSERT_EQ(deep.records[i].finish, consdyn.records[i].finish) << "record " << i;
          }
        }
      }
    }
  }
}

TEST(DepthScheduler, NameIncludesDepth) {
  EXPECT_EQ(DepthScheduler(DepthConfig{PriorityKind::Fairshare, 4}).name(), "depth4");
  EXPECT_EQ(DepthScheduler(DepthConfig{PriorityKind::Fcfs, 16}).name(), "depth16.fcfs");
  PolicyConfig c;
  c.kind = PolicyKind::Depth;
  c.reservation_depth = 8;
  EXPECT_EQ(c.display_name(), "depth8.nomax");
}

TEST(DepthScheduler, InvariantsAcrossDepths) {
  const Workload w = psched::workload::generate_small_workload(97, 250, 64, days(6));
  for (const int depth : {1, 2, 8, 64}) {
    const SimulationResult r = run_depth(w, depth, PriorityKind::Fairshare);
    test::expect_no_overallocation(r);
    test::expect_complete_and_causal(r);
  }
}

}  // namespace
}  // namespace psched
