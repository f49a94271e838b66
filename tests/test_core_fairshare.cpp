#include "core/fairshare.hpp"

#include <gtest/gtest.h>

namespace psched {
namespace {

constexpr Time kDay = days(1);

TEST(Fairshare, RejectsBadParameters) {
  EXPECT_THROW(FairshareTracker(0.0, kDay), std::invalid_argument);
  EXPECT_THROW(FairshareTracker(1.5, kDay), std::invalid_argument);
  EXPECT_THROW(FairshareTracker(0.5, 0), std::invalid_argument);
}

TEST(Fairshare, AccruesProcessorSeconds) {
  FairshareTracker t(1.0, kDay);
  t.on_job_start(0, 4);
  t.advance(100);
  EXPECT_DOUBLE_EQ(t.live_usage(0), 400.0);
  t.on_job_stop(0, 4);
  t.advance(200);
  EXPECT_DOUBLE_EQ(t.live_usage(0), 400.0);  // nothing running, no accrual
}

TEST(Fairshare, MultipleUsersAccrueIndependently) {
  FairshareTracker t(1.0, kDay);
  t.on_job_start(0, 2);
  t.on_job_start(1, 6);
  t.advance(50);
  EXPECT_DOUBLE_EQ(t.live_usage(0), 100.0);
  EXPECT_DOUBLE_EQ(t.live_usage(1), 300.0);
  EXPECT_EQ(t.running_processors(), 8);
  EXPECT_EQ(t.user_count(), 2u);
}

TEST(Fairshare, DecayAtBoundary) {
  FairshareTracker t(0.5, kDay);
  t.on_job_start(0, 1);
  t.advance(kDay);  // accrues kDay proc-seconds, then halves
  EXPECT_DOUBLE_EQ(t.live_usage(0), static_cast<double>(kDay) * 0.5);
  t.on_job_stop(0, 1);
  t.advance(3 * kDay);  // two more boundaries, no accrual
  EXPECT_DOUBLE_EQ(t.live_usage(0), static_cast<double>(kDay) * 0.125);
}

TEST(Fairshare, DecayBoundariesAlignedToGrid) {
  // Start mid-day: the first boundary is the next grid point, not start+24h.
  FairshareTracker t(0.5, kDay, kDay / 2);
  t.on_job_start(0, 1);
  t.advance(kDay);  // half a day accrued, then decay
  EXPECT_DOUBLE_EQ(t.live_usage(0), static_cast<double>(kDay / 2) * 0.5);
}

TEST(Fairshare, SplitAdvanceEqualsOneAdvance) {
  FairshareTracker a(0.7, kDay);
  FairshareTracker b(0.7, kDay);
  a.on_job_start(3, 5);
  b.on_job_start(3, 5);
  a.advance(5 * kDay + 12345);
  for (Time step = 0; step <= 5 * kDay + 12345; step += 7777) b.advance(step);
  b.advance(5 * kDay + 12345);
  EXPECT_NEAR(a.live_usage(3), b.live_usage(3), 1e-6);
}

TEST(Fairshare, PublishedValueOnlyRefreshesAtBoundary) {
  FairshareTracker t(0.5, kDay);
  t.on_job_start(0, 2);
  t.advance(1000);
  EXPECT_DOUBLE_EQ(t.usage(0), 0.0);          // priority not refreshed yet
  EXPECT_DOUBLE_EQ(t.live_usage(0), 2000.0);  // but accrual is live
  t.advance(kDay);
  EXPECT_DOUBLE_EQ(t.usage(0), static_cast<double>(2 * kDay) * 0.5);
}

TEST(Fairshare, PublishEpochCountsCrossedBoundaries) {
  // Start off the grid: the first boundary is 2 * kDay, then every kDay.
  FairshareTracker t(0.9, kDay, kDay + 500);
  EXPECT_EQ(t.publish_epoch(), 0u);
  t.on_job_start(0, 4);
  t.advance(2 * kDay - 1);  // accrues, publishes nothing
  EXPECT_EQ(t.publish_epoch(), 0u);
  EXPECT_DOUBLE_EQ(t.usage(0), 0.0);
  t.advance(2 * kDay);  // lands exactly on a boundary
  EXPECT_EQ(t.publish_epoch(), 1u);
  const double published = t.usage(0);
  EXPECT_GT(published, 0.0);
  t.advance(2 * kDay);  // no time passes
  EXPECT_EQ(t.publish_epoch(), 1u);
  t.advance(3 * kDay - 1);  // usage keeps accruing, the published value holds
  EXPECT_EQ(t.publish_epoch(), 1u);
  EXPECT_DOUBLE_EQ(t.usage(0), published);
  t.advance(6 * kDay + 7);  // one advance across four boundaries: 3, 4, 5, 6 days
  EXPECT_EQ(t.publish_epoch(), 5u);
  EXPECT_NE(t.usage(0), published);
}

TEST(Fairshare, PublishEpochMovesWithoutUsageToo) {
  // The epoch marks every refresh point, whether or not a value changed.
  FairshareTracker t(1.0, kDay);
  t.advance(3 * kDay);
  EXPECT_EQ(t.publish_epoch(), 3u);
  EXPECT_DOUBLE_EQ(t.mean_positive_usage(), 0.0);
}

TEST(Fairshare, TimeBackwardsThrows) {
  FairshareTracker t(0.5, kDay);
  t.advance(100);
  EXPECT_THROW(t.advance(50), std::logic_error);
}

TEST(Fairshare, StopMoreThanRunningThrows) {
  FairshareTracker t(0.5, kDay);
  t.on_job_start(0, 2);
  EXPECT_THROW(t.on_job_stop(0, 3), std::logic_error);
  EXPECT_THROW(t.on_job_stop(1, 1), std::logic_error);
}

TEST(Fairshare, MeanPositiveUsage) {
  FairshareTracker t(1.0, kDay);
  EXPECT_DOUBLE_EQ(t.mean_positive_usage(), 0.0);
  t.on_job_start(0, 10);
  t.on_job_start(2, 30);
  t.advance(10);
  EXPECT_DOUBLE_EQ(t.mean_positive_usage(), 0.0);  // nothing published yet
  t.advance(kDay);
  // users 0 and 2 published 10 and 30 proc-days; user 1 has none.
  EXPECT_DOUBLE_EQ(t.mean_positive_usage(), static_cast<double>(20 * kDay));
}

TEST(Fairshare, UnknownUsersAreZero) {
  FairshareTracker t(0.5, kDay);
  EXPECT_DOUBLE_EQ(t.usage(7), 0.0);
  EXPECT_DOUBLE_EQ(t.usage(-1), 0.0);
}

TEST(Fairshare, NoDecayFactorOne) {
  FairshareTracker t(1.0, kDay);
  t.on_job_start(0, 1);
  t.advance(10 * kDay);
  EXPECT_DOUBLE_EQ(t.live_usage(0), static_cast<double>(10 * kDay));
}

}  // namespace
}  // namespace psched
