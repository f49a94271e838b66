#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/time_format.hpp"
#include "workload/trace_stats.hpp"

namespace psched::workload {
namespace {

// The full-scale trace is used by several tests; generate it once.
const Workload& full_trace() {
  static const Workload trace = generate_ross_workload({});
  return trace;
}

TEST(Generator, MatchesTable1CellByCell) {
  const CategoryCounts counts = category_job_counts(full_trace());
  const CountTable& expected = ross_table1_job_counts();
  for (std::size_t w = 0; w < kWidthCategories; ++w)
    for (std::size_t l = 0; l < kLengthCategories; ++l)
      EXPECT_EQ(counts[w][l], expected[w][l]) << "cell (" << w << "," << l << ")";
}

TEST(Generator, TotalJobsMatchTable1) {
  EXPECT_EQ(static_cast<long long>(full_trace().jobs.size()), ross_table1_total_jobs());
}

TEST(Generator, ProcHoursCalibratedToTable2) {
  const CategoryHours hours = category_proc_hours(full_trace());
  const HoursTable& expected = ross_table2_proc_hours();
  const CountTable& counts = ross_table1_job_counts();
  double total = 0.0, expected_total = 0.0;
  for (std::size_t w = 0; w < kWidthCategories; ++w) {
    for (std::size_t l = 0; l < kLengthCategories; ++l) {
      total += hours[w][l];
      expected_total += expected[w][l];
      // The paper's own tables disagree for (513+, 4-8h): Table 1 reports 0
      // jobs but Table 2 reports 3,183 proc-hours. Counts are authoritative
      // for the generator, so proc-hour calibration skips count-0 cells.
      if (expected[w][l] >= 1000.0 && counts[w][l] > 0) {
        // Large cells calibrate within 25% (clamping to bin bounds limits
        // convergence for extreme node/runtime mixes).
        EXPECT_NEAR(hours[w][l] / expected[w][l], 1.0, 0.25)
            << "cell (" << w << "," << l << ")";
      }
    }
  }
  EXPECT_NEAR(total / expected_total, 1.0, 0.10);
}

TEST(Generator, DeterministicForSeed) {
  GeneratorConfig config;
  config.count_scale = 0.05;
  const Workload a = generate_ross_workload(config);
  const Workload b = generate_ross_workload(config);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].submit, b.jobs[i].submit);
    EXPECT_EQ(a.jobs[i].runtime, b.jobs[i].runtime);
    EXPECT_EQ(a.jobs[i].nodes, b.jobs[i].nodes);
    EXPECT_EQ(a.jobs[i].user, b.jobs[i].user);
    EXPECT_EQ(a.jobs[i].wcl, b.jobs[i].wcl);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorConfig a_cfg, b_cfg;
  a_cfg.count_scale = b_cfg.count_scale = 0.05;
  b_cfg.seed = 999;
  const Workload a = generate_ross_workload(a_cfg);
  const Workload b = generate_ross_workload(b_cfg);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());  // counts are table-driven
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    if (a.jobs[i].submit != b.jobs[i].submit) ++differing;
  EXPECT_GT(differing, a.jobs.size() / 2);
}

TEST(Generator, SubmitTimesInsideSpan) {
  for (const Job& job : full_trace().jobs) {
    EXPECT_GE(job.submit, 0);
    EXPECT_LT(job.submit, kRossTraceSpan);
  }
}

TEST(Generator, UsersWithinConfiguredPopulation) {
  GeneratorConfig config;
  for (const Job& job : full_trace().jobs) {
    EXPECT_GE(job.user, 0);
    EXPECT_LT(job.user, config.user_count);
    EXPECT_EQ(job.group, job.user % config.group_count);
  }
}

TEST(Generator, UserActivityIsSkewed) {
  std::vector<std::size_t> jobs_per_user(64, 0);
  for (const Job& job : full_trace().jobs) ++jobs_per_user[static_cast<std::size_t>(job.user)];
  std::sort(jobs_per_user.rbegin(), jobs_per_user.rend());
  // The top 8 users submit a large share (Zipf activity).
  std::size_t top8 = 0;
  for (std::size_t i = 0; i < 8; ++i) top8 += jobs_per_user[i];
  EXPECT_GT(static_cast<double>(top8) / static_cast<double>(full_trace().jobs.size()), 0.35);
}

TEST(Generator, PowerOfTwoNodesDominant) {
  EXPECT_GT(power_of_two_fraction(full_trace()), 0.40);
}

TEST(Generator, OverestimationShrinksWithRuntime) {
  std::vector<double> runtimes, factors;
  for (const Job& job : full_trace().jobs) {
    runtimes.push_back(static_cast<double>(job.runtime));
    factors.push_back(static_cast<double>(job.wcl) / static_cast<double>(job.runtime));
  }
  const BinnedSeries series = binned_median(runtimes, factors, 60.0, 1.0e6, 4);
  // Median over-estimation factor decreases from the shortest to the longest
  // runtime bin (paper Figure 6).
  ASSERT_GT(series.count.front(), 50u);
  ASSERT_GT(series.count.back(), 50u);
  EXPECT_GT(series.median.front(), series.median.back());
}

TEST(Generator, SmallUnderestimateFraction) {
  const double frac = underestimate_fraction(full_trace());
  EXPECT_GT(frac, 0.005);
  EXPECT_LT(frac, 0.06);
}

TEST(Generator, WeeklyLoadIsBursty) {
  const std::vector<double> offered = test::weekly_offered_load(full_trace());
  ASSERT_GE(offered.size(), 30u);
  // Every week before the last submission week, which is partial; the
  // series runs on to the last finish, but later weeks hold no submissions.
  const auto submit_weeks =
      static_cast<std::size_t>(util::week_index(full_trace().jobs.back().submit));
  ASSERT_LT(submit_weeks, offered.size());
  double peak = 0.0, low = 1e9;
  for (std::size_t w = 0; w < submit_weeks; ++w) {
    peak = std::max(peak, offered[w]);
    low = std::min(low, offered[w]);
  }
  EXPECT_GT(peak, 1.0);  // overload weeks exist (Figure 3)
  EXPECT_LT(low, 0.5);   // calm weeks exist
}

TEST(Generator, CountScaleShrinksTrace) {
  GeneratorConfig config;
  config.count_scale = 0.1;
  const Workload small = generate_ross_workload(config);
  EXPECT_LT(small.jobs.size(), full_trace().jobs.size() / 5);
  EXPECT_GT(small.jobs.size(), full_trace().jobs.size() / 20);
}

TEST(Generator, RejectsBadConfig) {
  GeneratorConfig config;
  config.system_size = 0;
  EXPECT_THROW(generate_ross_workload(config), std::invalid_argument);
  config = {};
  config.span = 0;
  EXPECT_THROW(generate_ross_workload(config), std::invalid_argument);
  config = {};
  config.user_count = 0;
  EXPECT_THROW(generate_ross_workload(config), std::invalid_argument);
}

TEST(GeneratorSmall, ProducesValidWorkloads) {
  const Workload w = generate_small_workload(1, 200, 32, days(2), 6);
  EXPECT_EQ(w.jobs.size(), 200u);
  EXPECT_NO_THROW(w.validate());
  for (const Job& job : w.jobs) {
    EXPECT_LE(job.nodes, 32);
    EXPECT_GE(job.wcl, job.runtime);  // small generator never under-estimates
    EXPECT_LT(job.user, 6);
  }
  EXPECT_THROW(generate_small_workload(1, 10, 0, 100), std::invalid_argument);
}

}  // namespace
}  // namespace psched::workload
