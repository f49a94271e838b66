// Fairness metric study: compares the three FST flavours the paper discusses
// (section 4) on one schedule — the hybrid fairshare FST (the paper's
// metric), the CONS_P FST of Srinivasan et al., and the per-policy
// "no later arrivals" FST of Sabin et al. — plus the resource-equality
// metric. The Sabin variant runs on the forked simulation engine (one pass
// plus a fork per job still waiting at the next arrival) instead of the
// historical O(n^2) per-job
// re-simulation, so it is no longer restricted to toy traces.

#include <iostream>

#include "metrics/fst.hpp"
#include "metrics/resource_equality.hpp"
#include "sim/engine.hpp"
#include "sim/policy_fst.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

int main() {
  using namespace psched;

  const Workload trace =
      workload::generate_small_workload(/*seed=*/7, /*jobs=*/400, /*system_size=*/128,
                                        /*span=*/days(14), /*user_count=*/12);
  sim::EngineConfig config;
  config.policy = paper_policy(PaperPolicy::Cplant24NomaxAll);
  const SimulationResult result = sim::simulate(trace, config);

  const metrics::FstResult hybrid = metrics::hybrid_fairshare_fst(result);
  const metrics::FstResult consp = metrics::cons_p_fst(result);

  // Sabin et al.: the policy's own schedule with later arrivals removed —
  // one forked drain per job instead of a full re-simulation per job.
  const std::vector<Time> sabin_fst = sim::policy_no_later_arrivals_fst(trace, config);
  std::size_t sabin_unfair = 0;
  double sabin_miss = 0.0;
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    const Time miss = std::max<Time>(0, result.records[i].start - sabin_fst[i]);
    sabin_miss += static_cast<double>(miss);
    if (miss > 1) ++sabin_unfair;
  }
  sabin_miss /= static_cast<double>(trace.jobs.size());

  util::TextTable table({"metric", "percent_unfair", "avg_miss_s"});
  table.begin_row().add("hybrid fairshare FST (this paper)")
      .add_percent(hybrid.percent_unfair).add(hybrid.avg_miss_all, 0);
  table.begin_row().add("CONS_P FST (Srinivasan et al.)")
      .add_percent(consp.percent_unfair).add(consp.avg_miss_all, 0);
  table.begin_row().add("policy/no-later-arrivals FST (Sabin et al.)")
      .add_percent(static_cast<double>(sabin_unfair) / static_cast<double>(trace.jobs.size()))
      .add(sabin_miss, 0);
  std::cout << "policy: " << result.policy_name << ", " << trace.jobs.size() << " jobs\n\n"
            << table << '\n';

  const metrics::ResourceEquality eq = metrics::resource_equality(result);
  std::cout << "resource-equality metric (1/N share):\n"
            << "  normalized deficit " << eq.normalized_deficit << '\n'
            << "  Jain index         " << eq.jain_index << '\n';
  return 0;
}
