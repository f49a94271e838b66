#pragma once
// Trace characterization: the quantities behind the paper's Tables 1-2 and
// Figures 4-7 (runtime/width distribution, wall-clock-limit over-estimation)
// computed from any Workload. Figure 3's weekly offered load comes from a
// simulation result: metrics::weekly_series (metrics/weekly.hpp).

#include <array>
#include <vector>

#include "core/categories.hpp"
#include "core/job.hpp"

namespace psched::workload {

using CategoryCounts = std::array<std::array<long long, kLengthCategories>, kWidthCategories>;
using CategoryHours = std::array<std::array<double, kLengthCategories>, kWidthCategories>;

/// Table 1: job count per width x length category.
CategoryCounts category_job_counts(const Workload& workload);

/// Table 2: processor-hours per width x length category.
CategoryHours category_proc_hours(const Workload& workload);

/// Per-job over-estimation factor WCL / runtime (Figures 5-7).
std::vector<double> overestimation_factors(const Workload& workload);

/// Scatter-plot summaries for Figures 4-7: per-log-bin medians/quartiles of
/// y over x. Bins with no samples report count == 0.
struct BinnedSeries {
  std::vector<double> bin_lo;   // x lower edge
  std::vector<double> bin_hi;   // x upper edge
  std::vector<std::size_t> count;
  std::vector<double> median;
  std::vector<double> p25;
  std::vector<double> p75;
};
BinnedSeries binned_median(const std::vector<double>& x, const std::vector<double>& y,
                           double x_lo, double x_hi, std::size_t bins);

/// Fraction of jobs whose runtime exceeds the wall clock limit.
double underestimate_fraction(const Workload& workload);

/// Fraction of jobs whose node count is a power of two.
double power_of_two_fraction(const Workload& workload);

}  // namespace psched::workload
