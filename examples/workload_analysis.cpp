// Workload analysis: characterize the synthetic CPlant/Ross trace the way
// the paper's section 2.2 characterizes the real one, and round-trip it
// through SWF. It prints the paper's trace figures and tables: Tables 1 and
// 2 beside the published values, Figure 3's weekly offered load and
// utilization under the baseline policy, the Figure 4/5 scatter densities
// and the Figure 6/7 over-estimation series. Figures 8-19 come from
// psched_campaign (examples/campaigns/fig14_all_policies.spec).
//
//   ./build-exp/example_workload_analysis

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <sstream>

#include "metrics/weekly.hpp"
#include "sim/experiment.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"
#include "workload/ross_reference.hpp"
#include "workload/swf.hpp"
#include "workload/trace_stats.hpp"

namespace {

using namespace psched;
using namespace psched::workload;

/// The paper's width x length layout; `cells` is a CountTable or HoursTable.
template <typename Cells>
util::TextTable category_table(const Cells& cells) {
  std::vector<std::string> header{"width \\ length"};
  for (const auto& label : length_labels()) header.push_back(label);
  util::TextTable table(header);
  for (int w = 0; w < kWidthCategories; ++w) {
    table.begin_row().add(width_category_label(w) + " nodes");
    for (const auto value : cells[static_cast<std::size_t>(w)])
      table.add(static_cast<double>(value), 0);
  }
  return table;
}

/// Quartiles of the over-estimation factor per bin of `x` (Figures 6, 7).
void print_factor_series(const std::string& title, const std::vector<double>& x,
                         const std::vector<double>& factors, double lo, double hi,
                         const std::function<std::string(double)>& format) {
  const BinnedSeries series = binned_median(x, factors, lo, hi, 8);
  util::TextTable table({"bin", "jobs", "p25 factor", "median factor", "p75 factor"});
  for (std::size_t b = 0; b < series.count.size(); ++b) {
    if (series.count[b] == 0) continue;
    table.begin_row()
        .add(format(series.bin_lo[b]) + " - " + format(series.bin_hi[b]))
        .add_int(static_cast<long long>(series.count[b]))
        .add(series.p25[b], 2)
        .add(series.median[b], 2)
        .add(series.p75[b], 2);
  }
  std::cout << "\n== " << title << " ==\n" << table;
}

}  // namespace

int main() {
  const Workload trace = generate_ross_workload({});
  std::cout << "synthetic CPlant/Ross trace: " << trace.jobs.size() << " jobs over "
            << static_cast<double>(trace.latest_submit() - trace.earliest_submit()) / 86400.0
            << " days, " << trace.system_size << " nodes\n";

  // Table 1: the generator matches the published counts cell by cell.
  const CategoryCounts counts = category_job_counts(trace);
  const CountTable& paper_counts = ross_table1_job_counts();
  long long total = 0, paper_total = 0, matching = 0;
  for (std::size_t w = 0; w < counts.size(); ++w)
    for (std::size_t l = 0; l < counts[w].size(); ++l) {
      total += counts[w][l];
      paper_total += paper_counts[w][l];
      if (counts[w][l] == paper_counts[w][l]) ++matching;
    }
  std::cout << "\n== Table 1: jobs per category ==\nmeasured:\n" << category_table(counts)
            << "\npaper:\n" << category_table(paper_counts) << "\ntotals: measured " << total
            << " vs paper " << paper_total << "; " << matching << "/"
            << kWidthCategories * kLengthCategories << " cells identical\n";

  // Table 2: runtimes are rescaled within their bins, so cells match
  // approximately. The paper's own (513+, 4-8h) cell has 0 jobs but 3183 h.
  const CategoryHours hours = category_proc_hours(trace);
  const HoursTable& paper_hours = ross_table2_proc_hours();
  double hours_total = 0.0, paper_hours_total = 0.0, abs_err = 0.0;
  for (std::size_t w = 0; w < hours.size(); ++w)
    for (std::size_t l = 0; l < hours[w].size(); ++l) {
      hours_total += hours[w][l];
      paper_hours_total += paper_hours[w][l];
      abs_err += std::abs(hours[w][l] - paper_hours[w][l]);
    }
  std::cout << "\n== Table 2: processor-hours per category ==\nmeasured:\n"
            << category_table(hours) << "\npaper:\n" << category_table(paper_hours)
            << "\ntotals: measured " << util::format_number(hours_total, 0) << " vs paper "
            << util::format_number(paper_hours_total, 0) << " proc-hours ("
            << util::format_number(hours_total / paper_hours_total * 100.0, 1)
            << "% of paper); mean absolute cell error "
            << util::format_number(abs_err / (kWidthCategories * kLengthCategories), 0)
            << " proc-hours\n";

  // Figure 3: bursty weekly offered load; utilization tracks it, capped by
  // the machine. Utilization needs one simulation of the baseline policy.
  sim::ExperimentRunner runner(trace);
  const metrics::WeeklySeries weekly =
      metrics::weekly_series(runner.run(paper_policy(PaperPolicy::Cplant24NomaxAll)).simulation);
  util::TextTable load({"week", "offered_load", "utilization", "offered (40 cols = 200%)"});
  for (std::size_t w = 0; w < weekly.offered_load.size(); ++w) {
    const int bars =
        std::clamp(static_cast<int>(std::lround(weekly.offered_load[w] * 20.0)), 0, 40);
    load.begin_row()
        .add_int(static_cast<long long>(w))
        .add_percent(weekly.offered_load[w], 1)
        .add_percent(weekly.utilization[w], 1)
        .add(std::string(static_cast<std::size_t>(bars), '#'));
  }
  std::cout << "\n== Figure 3: weekly offered load and utilization (cplant24.nomax.all) ==\n"
            << load;

  const std::vector<double> factors = overestimation_factors(trace);
  std::vector<double> runtimes, nodes, wcls;
  for (const Job& job : trace.jobs) {
    runtimes.push_back(static_cast<double>(job.runtime));
    nodes.push_back(static_cast<double>(job.nodes));
    wcls.push_back(static_cast<double>(job.wcl));
  }

  // Figure 4: widths occur at every runtime, banded at powers of two.
  util::Histogram2D by_nodes(util::log_edges(10.0, 2.0e6, 48), util::log_edges(1.0, 2048.0, 12));
  for (std::size_t i = 0; i < runtimes.size(); ++i) by_nodes.add(runtimes[i], nodes[i]);
  std::cout << "\n== Figure 4: runtime vs nodes ==\n"
            << by_nodes.render("runtime 10s .. 2e6s", "nodes 1 .. 2048 (log)")
            << "\npower-of-two node counts: "
            << util::format_number(power_of_two_fraction(trace) * 100.0, 1)
            << "%\nSpearman correlation runtime ~ nodes: "
            << util::format_number(util::spearman(runtimes, nodes), 3) << '\n';

  // Figure 5: estimates sit on or above the WCL = runtime diagonal, with a
  // thin tail of jobs that ran past their limit.
  util::Histogram2D by_wcl(util::log_edges(10.0, 2.0e6, 48), util::log_edges(10.0, 4.0e6, 14));
  for (std::size_t i = 0; i < runtimes.size(); ++i) by_wcl.add(runtimes[i], wcls[i]);
  std::cout << "\n== Figure 5: WCL vs runtime ==\n"
            << by_wcl.render("runtime 10s .. 2e6s", "WCL 10s .. 4e6s (log)")
            << "\njobs with runtime > WCL: "
            << util::format_number(underestimate_fraction(trace) * 100.0, 2)
            << "%\nSpearman correlation WCL ~ runtime: "
            << util::format_number(util::spearman(runtimes, wcls), 3) << '\n';

  // Figure 6: the over-estimation factor shrinks for longer jobs.
  print_factor_series("Figure 6: WCL over-estimation factor vs runtime", runtimes, factors, 30.0,
                      2.0e6, util::format_duration_short);
  // Figure 7: it is unrelated to the node count.
  print_factor_series("Figure 7: WCL over-estimation factor vs nodes", nodes, factors, 1.0,
                      2048.0, [](double v) { return util::format_number(v, 0); });
  std::cout << "Spearman correlation factor ~ nodes: "
            << util::format_number(util::spearman(nodes, factors), 3) << '\n';

  // SWF round trip.
  std::ostringstream swf;
  write_swf(swf, trace);
  std::istringstream back(swf.str());
  const SwfReadResult reread = read_swf(back);
  std::cout << "\nSWF round-trip: wrote and re-read " << reread.workload.jobs.size()
            << " jobs (skipped " << reread.skipped_records << ")\n";
  return 0;
}
