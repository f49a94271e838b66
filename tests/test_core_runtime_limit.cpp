#include "core/runtime_limit.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "test_helpers.hpp"

namespace psched {
namespace {

using test::make_job;

TEST(RuntimeLimiter, DisabledPassesThrough) {
  const RuntimeLimiter limiter(kNoTime);
  EXPECT_FALSE(limiter.enabled());
  Job original = make_job(100, hours(200), 16);
  original.id = 7;
  EXPECT_EQ(limiter.segment_count(original), 1);
  const Job seg = limiter.make_segment(original, 0, 42);
  EXPECT_EQ(seg.id, 42);
  EXPECT_EQ(seg.parent, 7);
  EXPECT_EQ(seg.runtime, hours(200));
  EXPECT_EQ(seg.segment_count, 1);
}

TEST(RuntimeLimiter, RejectsNonPositiveLimit) {
  EXPECT_THROW(RuntimeLimiter(0), std::invalid_argument);
  EXPECT_THROW(RuntimeLimiter(-7), std::invalid_argument);
}

TEST(RuntimeLimiter, SegmentCountCeiling) {
  const RuntimeLimiter limiter(hours(72));
  EXPECT_EQ(limiter.segment_count(make_job(0, hours(72), 1)), 1);
  EXPECT_EQ(limiter.segment_count(make_job(0, hours(72) + 1, 1)), 2);
  EXPECT_EQ(limiter.segment_count(make_job(0, hours(144), 1)), 2);
  EXPECT_EQ(limiter.segment_count(make_job(0, hours(145), 1)), 3);
  EXPECT_EQ(limiter.segment_count(make_job(0, minutes(5), 1)), 1);
}

TEST(RuntimeLimiter, SegmentRuntimesSumToOriginal) {
  const RuntimeLimiter limiter(hours(72));
  Job original = make_job(500, hours(200), 8, 3, hours(250));
  original.id = 11;
  const std::int32_t count = limiter.segment_count(original);
  ASSERT_EQ(count, 3);
  Time total = 0;
  for (std::int32_t s = 0; s < count; ++s) {
    const Job seg = limiter.make_segment(original, s, s);
    total += seg.runtime;
    EXPECT_LE(seg.runtime, hours(72));
    EXPECT_LE(seg.wcl, hours(72));
    EXPECT_GT(seg.wcl, 0);
    EXPECT_EQ(seg.submit, 500);  // every segment at the original's submit
    EXPECT_EQ(seg.parent, 11);
    EXPECT_EQ(seg.segment, s);
    EXPECT_EQ(seg.segment_count, 3);
    EXPECT_EQ(seg.nodes, 8);
    EXPECT_EQ(seg.user, 3);
  }
  EXPECT_EQ(total, hours(200));
}

TEST(RuntimeLimiter, WclChunking) {
  const RuntimeLimiter limiter(hours(72));
  const Job original = make_job(0, hours(80), 4, 0, hours(100));
  const Job seg0 = limiter.make_segment(original, 0, 0);
  const Job seg1 = limiter.make_segment(original, 1, 1);
  EXPECT_EQ(seg0.wcl, hours(72));
  EXPECT_EQ(seg1.wcl, hours(28));  // remaining estimate
  EXPECT_EQ(seg0.runtime, hours(72));
  EXPECT_EQ(seg1.runtime, hours(8));
}

TEST(RuntimeLimiter, UnderestimatedWclGetsFloor) {
  const RuntimeLimiter limiter(hours(72));
  // User estimated 10 h but the job runs 100 h: trailing segments still get
  // a sane minimum WCL.
  const Job original = make_job(0, hours(100), 2, 0, hours(10));
  const Job seg1 = limiter.make_segment(original, 1, 1);
  EXPECT_GE(seg1.wcl, RuntimeLimiter::kMinSegmentWcl);
}

TEST(RuntimeLimiter, BadSegmentIndexThrows) {
  const RuntimeLimiter limiter(hours(72));
  const Job original = make_job(0, hours(100), 2);
  EXPECT_THROW(limiter.make_segment(original, -1, 0), std::out_of_range);
  EXPECT_THROW(limiter.make_segment(original, 2, 0), std::out_of_range);
}

// The engine's record seeding is the one place a workload is split: every
// segment of every job enters at the original job's submit time.
TEST(SplitWorkload, PreprocessingMode) {
  const Workload original = test::make_workload(
      64, {make_job(0, hours(100), 4), make_job(10, hours(10), 8), make_job(20, hours(300), 2)});
  sim::EngineConfig config;
  config.policy.max_runtime = hours(72);
  const SimulationResult split = sim::simulate(original, config);
  // 100h -> 2 segments, 10h -> 1, 300h -> 5.
  EXPECT_EQ(split.records.size(), 8u);
  double split_work = 0.0;
  for (const JobRecord& record : split.records) {
    const Job& seg = record.job;
    EXPECT_LE(seg.runtime, hours(72));
    EXPECT_EQ(seg.submit, original.jobs[static_cast<std::size_t>(seg.parent)].submit);
    split_work += static_cast<double>(seg.nodes) * static_cast<double>(seg.runtime);
  }
  EXPECT_DOUBLE_EQ(split_work, original.total_proc_seconds());
}

TEST(SplitWorkload, NoopWithoutLongJobs) {
  const Workload original =
      test::make_workload(64, {make_job(0, hours(10), 4), make_job(5, hours(72), 8)});
  sim::EngineConfig config;
  config.policy.max_runtime = hours(72);
  const SimulationResult split = sim::simulate(original, config);
  EXPECT_EQ(split.records.size(), 2u);
  EXPECT_EQ(split.records[0].job.runtime, original.jobs[0].runtime);
}

}  // namespace
}  // namespace psched
