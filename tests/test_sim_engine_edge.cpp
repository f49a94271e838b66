// Engine edge cases: simultaneous events, full-machine jobs, zero-wait
// chains, and event-ordering guarantees.

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "test_helpers.hpp"

namespace psched::sim {
namespace {

using test::make_job;
using test::make_workload;

TEST(EngineEdge, CompletionBeforeArrivalAtSameInstant) {
  // A job completes exactly when another arrives: the freed nodes must be
  // usable by the arrival immediately (completions drain first).
  const Workload w = make_workload(4, {
                                          make_job(0, 100, 4),
                                          make_job(100, 10, 4),  // arrives at the completion
                                      });
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_EQ(r.records[1].start, 100);
  EXPECT_EQ(r.records[1].wait(), 0);
}

TEST(EngineEdge, ManySimultaneousArrivals) {
  std::vector<Job> jobs;
  for (int i = 0; i < 32; ++i) jobs.push_back(make_job(1000, 60, 1, i % 4));
  const Workload w = make_workload(8, jobs);
  const SimulationResult r = simulate(w, EngineConfig{});
  test::expect_no_overallocation(r);
  test::expect_complete_and_causal(r);
  // Exactly 8 can run at once: the batch drains in 4 waves.
  Time last_finish = 0;
  for (const JobRecord& rec : r.records) last_finish = std::max(last_finish, rec.finish);
  EXPECT_EQ(last_finish, 1000 + 4 * 60);
}

TEST(EngineEdge, FullMachineJobsSerialize) {
  const Workload w = make_workload(16, {
                                           make_job(0, 50, 16),
                                           make_job(0, 50, 16),
                                           make_job(0, 50, 16),
                                       });
  const SimulationResult r = simulate(w, EngineConfig{});
  std::vector<Time> starts{r.records[0].start, r.records[1].start, r.records[2].start};
  std::sort(starts.begin(), starts.end());
  EXPECT_EQ(starts, (std::vector<Time>{0, 50, 100}));
}

TEST(EngineEdge, OneSecondJobs) {
  std::vector<Job> jobs;
  for (int i = 0; i < 50; ++i) jobs.push_back(make_job(i, 1, 1, 0));
  const Workload w = make_workload(2, jobs);
  const SimulationResult r = simulate(w, EngineConfig{});
  test::expect_complete_and_causal(r);
}

TEST(EngineEdge, SingleJobMetricsAreTrivial) {
  const Workload w = make_workload(8, {make_job(123, 456, 3)});
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_EQ(r.records[0].start, 123);
  EXPECT_EQ(r.records[0].finish, 123 + 456);
  EXPECT_EQ(r.first_start, 123);
  EXPECT_EQ(r.last_finish, 123 + 456);
  EXPECT_EQ(r.makespan(), 456);
  EXPECT_DOUBLE_EQ(r.loc_proc_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.busy_proc_seconds, 3.0 * 456.0);
}

TEST(EngineEdge, LateFirstArrivalDoesNotAccrueLoc) {
  // Idle machine with an empty queue is not loss of capacity.
  const Workload w = make_workload(8, {make_job(days(10), 100, 8)});
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_DOUBLE_EQ(r.loc_proc_seconds, 0.0);
}

TEST(EngineEdge, WholeTraceAtSameInstantUnderConservative) {
  std::vector<Job> jobs;
  for (int i = 0; i < 24; ++i) jobs.push_back(make_job(0, 100, 1 + i % 8, i % 3));
  const Workload w = make_workload(8, jobs);
  EngineConfig config;
  config.policy.kind = PolicyKind::Conservative;
  const SimulationResult r = simulate(w, config);
  test::expect_no_overallocation(r);
  test::expect_complete_and_causal(r);
}

TEST(EngineEdge, EngineStateVisibleThroughContext) {
  const Workload w = make_workload(8, {make_job(0, 100, 3)});
  EngineConfig config;
  SimulationEngine engine(w, config);
  EXPECT_EQ(engine.total_nodes(), 8);
  EXPECT_EQ(engine.free_nodes(), 8);
  engine.run();
  EXPECT_EQ(engine.free_nodes(), 8);  // all released at the end
  EXPECT_TRUE(engine.running().empty());
}

TEST(EngineCancellation, PreTrippedTokenStopsBeforeTheFirstEvent) {
  const Workload w = make_workload(8, {make_job(0, 100, 3)});
  util::StopSource stop;
  stop.request_stop();
  EngineConfig config;
  config.stop = stop.token();
  try {
    simulate(w, config);
    FAIL() << "expected SimulationCancelled";
  } catch (const SimulationCancelled& cancelled) {
    EXPECT_EQ(cancelled.reason(), util::StopReason::Cancelled);
  }
}

TEST(EngineCancellation, ExpiredDeadlineSurfacesAsTimeout) {
  std::vector<Job> jobs;
  for (int i = 0; i < 16; ++i) jobs.push_back(make_job(i * 10, 60, 1, i % 4));
  const Workload w = make_workload(4, jobs);
  util::StopSource stop;
  stop.set_deadline_after(0.0);  // already past by the first poll
  EngineConfig config;
  config.stop = stop.token();
  try {
    simulate(w, config);
    FAIL() << "expected SimulationCancelled";
  } catch (const SimulationCancelled& cancelled) {
    EXPECT_EQ(cancelled.reason(), util::StopReason::Timeout);
  }
}

TEST(EngineCancellation, EmptyTokenCostsNothingAndNeverCancels) {
  const Workload w = make_workload(8, {make_job(0, 100, 3), make_job(5, 50, 2)});
  EngineConfig config;
  ASSERT_FALSE(config.stop.valid());  // the default: no cancellation wired
  const SimulationResult r = simulate(w, config);
  EXPECT_EQ(r.records.size(), 2u);
}

}  // namespace
}  // namespace psched::sim
