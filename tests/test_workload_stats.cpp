#include "workload/trace_stats.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "workload/ross_reference.hpp"

namespace psched::workload {
namespace {

using test::make_job;
using test::make_workload;

TEST(TraceStats, CategoryCountsPlaceJobsCorrectly) {
  const Workload w = make_workload(64, {
                                           make_job(0, minutes(5), 1),    // (1, 0-15m)
                                           make_job(1, minutes(5), 1),    // (1, 0-15m)
                                           make_job(2, hours(2), 4),      // (3-4, 1-4h)
                                           make_job(3, days(3), 33),      // (33-64, 2+d)
                                       });
  const CategoryCounts counts = category_job_counts(w);
  EXPECT_EQ(counts[0][0], 2);
  EXPECT_EQ(counts[2][2], 1);
  EXPECT_EQ(counts[6][7], 1);
  long long total = 0;
  for (const auto& row : counts)
    for (const long long c : row) total += c;
  EXPECT_EQ(total, 4);
}

TEST(TraceStats, CategoryProcHours) {
  const Workload w = make_workload(64, {make_job(0, hours(2), 4)});
  const CategoryHours hours_table = category_proc_hours(w);
  EXPECT_DOUBLE_EQ(hours_table[2][2], 8.0);  // 4 nodes * 2 h
}

TEST(TraceStats, WeeklyOfferedLoad) {
  // One job in week 0 using half the machine for half a week; the second
  // starts on arrival and finishes inside week 1.
  const Workload w = make_workload(
      4, {make_job(0, util::kSecondsPerWeek / 2, 2),
          make_job(util::kSecondsPerWeek + 10, util::kSecondsPerWeek / 4, 4)});
  const std::vector<double> load = test::weekly_offered_load(w);
  ASSERT_EQ(load.size(), 2u);
  EXPECT_NEAR(load[0], 0.25, 1e-9);  // 2/4 nodes * 1/2 week
  EXPECT_NEAR(load[1], 0.25, 1e-9);  // 4/4 nodes * 1/4 week
}

TEST(TraceStats, WeeklyOfferedLoadEmpty) {
  const Workload w{{}, 4};
  EXPECT_TRUE(test::weekly_offered_load(w).empty());
}

TEST(TraceStats, OverestimationFactors) {
  const Workload w = make_workload(8, {make_job(0, 100, 1, 0, 500)});
  const std::vector<double> f = overestimation_factors(w);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f[0], 5.0);
}

TEST(TraceStats, UnderestimateFraction) {
  Job over = make_job(0, 100, 1, 0, 500);
  Job under = make_job(1, 100, 1, 0, 50);
  const Workload w = make_workload(8, {over, under});
  EXPECT_DOUBLE_EQ(underestimate_fraction(w), 0.5);
  EXPECT_DOUBLE_EQ(underestimate_fraction(Workload{{}, 8}), 0.0);
}

TEST(TraceStats, PowerOfTwoFraction) {
  const Workload w = make_workload(64, {
                                           make_job(0, 10, 1),
                                           make_job(1, 10, 2),
                                           make_job(2, 10, 3),
                                           make_job(3, 10, 16),
                                       });
  EXPECT_DOUBLE_EQ(power_of_two_fraction(w), 0.75);
}

TEST(TraceStats, BinnedMedianBasics) {
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(5.0);     // all in the first decade
    y.push_back(i);
  }
  const BinnedSeries series = binned_median(x, y, 1.0, 100.0, 2);
  ASSERT_EQ(series.count.size(), 2u);
  EXPECT_EQ(series.count[0], 100u);
  EXPECT_EQ(series.count[1], 0u);
  EXPECT_NEAR(series.median[0], 49.5, 0.01);
  EXPECT_LT(series.p25[0], series.p75[0]);
}

TEST(TraceStats, BinnedMedianRejectsBadInput) {
  const std::vector<double> x{1.0}, y{1.0, 2.0};
  EXPECT_THROW(binned_median(x, y, 1.0, 10.0, 2), std::invalid_argument);
  EXPECT_THROW(binned_median(y, y, 0.0, 10.0, 2), std::invalid_argument);
  EXPECT_THROW(binned_median(y, y, 1.0, 10.0, 0), std::invalid_argument);
}

TEST(RossReference, TableTotalsAreConsistent) {
  EXPECT_EQ(ross_table1_total_jobs(), 13236);
  EXPECT_NEAR(ross_table2_total_proc_hours(), 3.97e6, 0.05e6);
  // Cells with zero jobs have zero proc-hours — except (513+, 4-8h), which
  // the paper itself reports inconsistently (Table 1: 0 jobs; Table 2:
  // 3,183 proc-hours). We transcribe the paper verbatim and document the
  // discrepancy here.
  const CountTable& counts = ross_table1_job_counts();
  const HoursTable& hours_table = ross_table2_proc_hours();
  for (std::size_t w = 0; w < kWidthCategories; ++w) {
    for (std::size_t l = 0; l < kLengthCategories; ++l) {
      if (counts[w][l] != 0) continue;
      if (w == 10 && l == 3) {
        EXPECT_DOUBLE_EQ(hours_table[w][l], 3183.0);  // the paper's anomaly
      } else {
        EXPECT_DOUBLE_EQ(hours_table[w][l], 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace psched::workload
