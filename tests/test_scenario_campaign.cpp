// Campaign runner integration: the committed fig14 spec reproduces the
// direct library sweep bit-for-bit, every committed spec runs, SWF replay
// works end to end at smoke scale, serial and parallel campaigns are
// byte-identical, and multi-seed replication aggregates into deterministic
// bootstrap intervals.

#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>

#include "metrics/report.hpp"
#include "metrics/selection.hpp"
#include "sim/experiment.hpp"
#include "test_helpers.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"
#include "workload/swf.hpp"
#include "workload/transform.hpp"

namespace psched::scenario {
namespace {

const std::string kSourceDir = PSCHED_SOURCE_DIR;

ScenarioSpec parse(const std::string& text) {
  std::istringstream in(text);
  return parse_spec(in, "test.spec");
}

std::string csv_of(const CampaignResult& result) {
  std::ostringstream out;
  write_cells_csv(result, out);
  return out.str();
}

std::string json_of(const CampaignResult& result) {
  std::ostringstream out;
  write_summary_json(result, out);
  return out.str();
}

TEST(Campaign, CommittedFig14SpecMatchesTheFigureBinaryPath) {
  // The committed spec IS the figure configuration (same seed, same policy
  // list); only the trace scale is turned down so the test stays quick — the
  // workload construction formula (span scaling included) is what's pinned.
  ScenarioSpec spec = parse_spec_file(kSourceDir + "/examples/campaigns/fig14_all_policies.spec");
  EXPECT_EQ(spec.workload.seed, 20021201u);
  const std::vector<PolicyConfig> paper = all_paper_policies();
  ASSERT_EQ(spec.policy_names.size(), paper.size());
  for (std::size_t i = 0; i < paper.size(); ++i)
    EXPECT_EQ(spec.policy_names[i], paper[i].display_name());

  spec.workload.scale = 0.05;
  const CampaignResult result = run_campaign(spec);

  // The reference: the figure path as a direct library sweep — generate the
  // Ross trace and sweep through a cached ExperimentRunner with default
  // engine settings.
  workload::GeneratorConfig generator;
  generator.seed = spec.workload.seed;
  generator.count_scale = spec.workload.scale;
  generator.span = std::max<Time>(
      weeks(4),
      static_cast<Time>(static_cast<double>(workload::kRossTraceSpan) * spec.workload.scale));
  sim::ExperimentRunner runner(workload::generate_ross_workload(generator));
  std::vector<metrics::PolicyReport> reference;
  for (const sim::ExperimentResult* run : runner.run_all(paper))
    reference.push_back(run->report);

  ASSERT_EQ(result.cells.size(), paper.size());
  for (std::size_t i = 0; i < paper.size(); ++i) {
    EXPECT_EQ(result.reports[i].policy, reference[i].policy);
    for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
      // Bit-for-bit, not approximately: same workload, same policy, same
      // seed must be the same simulation.
      EXPECT_DOUBLE_EQ(result.cells[i].metrics[m],
                       metrics::metric_value(reference[i], spec.metrics[m]))
          << result.reports[i].policy << " / " << spec.metrics[m];
    }
  }
  // Every rendered figure table psched_campaign prints for a single-seed
  // campaign byte-diffs clean against the reference sweep; one decay, so the
  // titles carry no knob.
  const std::vector<FigureTable> figures = figure_tables(result);
  ASSERT_EQ(figures.size(), 4u);
  EXPECT_EQ(figures[0].title, "fairness");
  EXPECT_EQ(figures[0].table.str(), metrics::fairness_summary_table(reference).str());
  EXPECT_EQ(figures[1].title, "performance");
  EXPECT_EQ(figures[1].table.str(), metrics::performance_summary_table(reference).str());
  EXPECT_EQ(figures[2].title, "avg miss by width");
  EXPECT_EQ(figures[2].table.str(), metrics::miss_by_width_table(reference).str());
  EXPECT_EQ(figures[3].title, "avg turnaround by width");
  EXPECT_EQ(figures[3].table.str(), metrics::turnaround_by_width_table(reference).str());
}

TEST(Campaign, FigureTablesOfTheDecayAblationAreLabelledByDecay) {
  // ablation_decay crosses two policies with four decay factors: eight cells
  // that share two policy names. Each decay gets its own block of the four
  // tables, and no table holds two rows (columns) of the same policy.
  ScenarioSpec spec = parse_spec_file(kSourceDir + "/examples/campaigns/ablation_decay.spec");
  ASSERT_EQ(spec.policy_names.size(), 2u);
  spec.workload.scale = 0.02;
  const CampaignResult result = run_campaign(spec);
  ASSERT_TRUE(result.reports_complete);
  ASSERT_EQ(result.cells.size(), 8u);

  const std::vector<FigureTable> figures = figure_tables(result);
  const std::vector<std::string> decays = {"0.5", "0.8", "0.9", "0.99"};
  const std::vector<std::string> names = {"fairness", "performance", "avg miss by width",
                                          "avg turnaround by width"};
  ASSERT_EQ(figures.size(), decays.size() * names.size());
  for (std::size_t d = 0; d < decays.size(); ++d) {
    std::vector<metrics::PolicyReport> block;
    for (std::size_t i = 0; i < result.cells.size(); ++i)
      if (util::format_number(result.cells[i].cell.decay, 3) == decays[d])
        block.push_back(result.reports[i]);
    ASSERT_EQ(block.size(), 2u) << decays[d];
    EXPECT_NE(block[0].policy, block[1].policy);
    for (std::size_t t = 0; t < names.size(); ++t)
      EXPECT_EQ(figures[d * names.size() + t].title, names[t] + " (decay " + decays[d] + ")");
    const FigureTable& fairness = figures[d * names.size()];
    EXPECT_EQ(fairness.table.str(), metrics::fairness_summary_table(block).str());
    ASSERT_EQ(fairness.table.rows(), 2u);
    EXPECT_EQ(fairness.table.cell(0, 0), spec.policy_names[0]);
    EXPECT_EQ(fairness.table.cell(1, 0), spec.policy_names[1]);
    EXPECT_EQ(figures[d * names.size() + 2].table.columns(), 3u);  // width + one per policy
  }
}

TEST(Campaign, HeavyUserFactorGridIsLabelledByFactor) {
  // The display name omits heavy_user_factor, so a grid over it gives two
  // cells one name. The figure tables repeat per factor (cons.nomax never
  // reads the factor, so it sits in both blocks) and the summary and the
  // --dry-run plan gain a factor column, "-" where the policy does not read
  // it.
  const std::string base =
      "[campaign]\nname = factor_grid\nmetrics = percent_unfair, avg_miss_all\n"
      "[workload]\nsource = ross\nseed = 20021201\nscale = 0.02\n"
      "[policies]\nnames = cplant24.nomax.fair, cons.nomax\n";
  const std::string grid = base + "[grid]\nheavy_user_factor = 1.5, 4\n";
  const CampaignResult result = run_campaign(parse(grid));
  ASSERT_TRUE(result.reports_complete);
  ASSERT_EQ(result.cells.size(), 3u);  // cons.nomax's two factors share one cell
  EXPECT_EQ(result.cells[0].cell.policy.display_name(),
            result.cells[1].cell.policy.display_name());

  const std::vector<FigureTable> figures = figure_tables(result);
  const std::vector<std::string> names = {"fairness", "performance", "avg miss by width",
                                          "avg turnaround by width"};
  const std::vector<std::string> factors = {"1.5", "4"};
  ASSERT_EQ(figures.size(), factors.size() * names.size());
  for (std::size_t f = 0; f < factors.size(); ++f) {
    for (std::size_t t = 0; t < names.size(); ++t)
      EXPECT_EQ(figures[f * names.size() + t].title, names[t] + " (factor " + factors[f] + ")");
    const FigureTable& fairness = figures[f * names.size()];
    EXPECT_EQ(fairness.table.str(),
              metrics::fairness_summary_table({result.reports[f], result.reports[2]}).str());
    ASSERT_EQ(fairness.table.rows(), 2u);
    EXPECT_EQ(fairness.table.cell(0, 0), "cplant24.nomax.fair");
    EXPECT_EQ(fairness.table.cell(1, 0), "cons.nomax");
  }

  const util::TextTable summary = summary_table(result);
  ASSERT_EQ(summary.columns(), 6u);  // policy, decay, factor, n, two metrics
  ASSERT_EQ(summary.rows(), 3u);
  EXPECT_EQ(summary.cell(0, 2), "1.5");
  EXPECT_EQ(summary.cell(1, 2), "4");
  EXPECT_EQ(summary.cell(2, 2), "-");
  EXPECT_EQ(summary.cell(0, 0), summary.cell(1, 0));

  const util::TextTable plan = plan_table(expand_campaign(parse(grid)));
  ASSERT_EQ(plan.columns(), 5u);  // cell, seed, decay, factor, policy
  ASSERT_EQ(plan.rows(), 3u);
  const std::vector<std::string> plan_factors = {"1.5", "4", "-"};
  for (std::size_t row = 0; row < plan.rows(); ++row) {
    EXPECT_EQ(plan.cell(row, 0), std::to_string(row));
    EXPECT_EQ(plan.cell(row, 3), plan_factors[row]);
    EXPECT_EQ(plan.cell(row, 4), result.cells[row].cell.policy.display_name());
  }

  // Without the grid nothing splits and no factor column appears.
  const CampaignResult plain = run_campaign(parse(base));
  EXPECT_EQ(summary_table(plain).columns(), 5u);
  EXPECT_EQ(plan_table(expand_campaign(parse(base))).columns(), 4u);
  const std::vector<FigureTable> plain_figures = figure_tables(plain);
  ASSERT_EQ(plain_figures.size(), names.size());
  EXPECT_EQ(plain_figures[0].title, "fairness");
}

TEST(Campaign, EveryCommittedSpecRunsAtSmallScale) {
  // The committed specs are the figure and ablation drivers; run each one
  // (synthetic traces turned down to 2% of Ross) so none of them rots.
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(kSourceDir + "/examples/campaigns"))
    if (entry.path().extension() == ".spec") paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 8u);
  for (const std::string& path : paths) {
    ScenarioSpec spec = parse_spec_file(path);
    if (spec.workload.source == WorkloadSpec::Source::Ross) spec.workload.scale = 0.02;
    const CampaignResult result = run_campaign(spec);
    ASSERT_FALSE(result.cells.empty()) << path;
    for (const CellResult& cell : result.cells)
      EXPECT_EQ(cell.status, CellStatus::Ok) << path << ": " << cell.error;
  }
}

TEST(Campaign, CommittedSwfReplaySpecRunsTheSampleArchive) {
  const ScenarioSpec spec =
      parse_spec_file(kSourceDir + "/examples/campaigns/swf_replay.spec");
  const CampaignResult result = run_campaign(spec);

  // Ingestion accounting: the committed sample mixes completed records with
  // spliced failed/cancelled/partial ones, and the campaign surfaces what
  // the status filter dropped.
  ASSERT_TRUE(result.swf_info.has_value());
  EXPECT_EQ(result.swf_info->total_records, 194u);
  EXPECT_EQ(result.swf_info->filtered_records, 14u);
  EXPECT_EQ(result.swf_info->skipped_records, 0u);
  EXPECT_EQ(result.swf_info->sizing, workload::SwfSizing::HeaderNodes);
  ASSERT_EQ(result.traces.size(), 1u);
  EXPECT_EQ(result.traces[0].jobs, 180u);
  EXPECT_EQ(result.traces[0].system_size, 1524);

  // Two policies replayed; metrics are real numbers from a real simulation.
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.reports[0].policy, "cplant24.nomax.all");
  EXPECT_EQ(result.reports[1].policy, "cons.nomax");
  const std::size_t utilization = [&] {
    for (std::size_t m = 0; m < spec.metrics.size(); ++m)
      if (spec.metrics[m] == "utilization") return m;
    return spec.metrics.size();
  }();
  ASSERT_LT(utilization, spec.metrics.size());
  for (const CellResult& cell : result.cells) {
    EXPECT_GT(cell.metrics[utilization], 0.0);
    for (const double value : cell.metrics) EXPECT_TRUE(std::isfinite(value));
  }

  // Replaying the same archive directly gives the same numbers.
  const workload::SwfReadResult direct =
      workload::read_swf_file(kSourceDir + "/tests/data/sample_cplant.swf");
  sim::ExperimentRunner runner(direct.workload);
  const sim::ExperimentResult& baseline = runner.run(*policy_from_name("cplant24.nomax.all"));
  EXPECT_DOUBLE_EQ(result.cells[0].metrics[utilization], baseline.report.standard.utilization);
}

TEST(Campaign, SerialAndParallelRunsAreByteIdentical) {
  const ScenarioSpec spec = parse(R"(
[campaign]
name = serial_vs_parallel
metrics = percent_unfair, avg_wait, avg_turnaround, utilization

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.all, easy, cons.nomax

[seeds]
list = 11, 12
)");
  CampaignOptions serial;
  serial.jobs = 1;
  CampaignOptions parallel;
  parallel.jobs = 4;
  const CampaignResult a = run_campaign(spec, serial);
  const CampaignResult b = run_campaign(spec, parallel);
  EXPECT_EQ(csv_of(a), csv_of(b));
  EXPECT_EQ(json_of(a), json_of(b));
}

TEST(Campaign, MultiSeedAggregationIsDeterministicAndSane) {
  const ScenarioSpec spec = parse(R"(
[campaign]
name = multiseed
metrics = avg_wait, utilization
bootstrap_resamples = 500

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.all

[seeds]
list = 1, 2, 3, 4, 5
)");
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.cells.size(), 5u);
  ASSERT_EQ(result.aggregates.size(), 1u);
  const AggregateResult& aggregate = result.aggregates[0];
  EXPECT_EQ(aggregate.policy, "cplant24.nomax.all");
  EXPECT_EQ(aggregate.replicates, 5u);
  ASSERT_EQ(aggregate.metrics.size(), 2u);
  for (std::size_t m = 0; m < aggregate.metrics.size(); ++m) {
    const util::BootstrapCi& ci = aggregate.metrics[m];
    // The aggregate mean is the plain mean of the five replicate values.
    double sum = 0.0;
    for (const CellResult& cell : result.cells) sum += cell.metrics[m];
    EXPECT_DOUBLE_EQ(ci.mean, sum / 5.0);
    EXPECT_LE(ci.lo, ci.mean);
    EXPECT_GE(ci.hi, ci.mean);
  }
  // Replicates genuinely vary (different seeds, loaded trace) so the band
  // has width — a degenerate all-equal aggregate would hide a seed bug.
  EXPECT_LT(aggregate.metrics[0].lo, aggregate.metrics[0].hi);

  // Bootstrap streams derive from the spec seed: the whole run repeats
  // byte-for-byte, and a different bootstrap seed moves only the band.
  const CampaignResult again = run_campaign(spec);
  EXPECT_EQ(json_of(result), json_of(again));
  ScenarioSpec reseeded = spec;
  reseeded.bootstrap_seed = 2;
  const CampaignResult moved = run_campaign(reseeded);
  EXPECT_DOUBLE_EQ(moved.aggregates[0].metrics[0].mean, aggregate.metrics[0].mean);
  EXPECT_TRUE(moved.aggregates[0].metrics[0].lo != aggregate.metrics[0].lo ||
              moved.aggregates[0].metrics[0].hi != aggregate.metrics[0].hi);
}

TEST(Campaign, ToleranceRecomputesTheFairnessMetrics) {
  const char* text = R"(
[campaign]
name = tolerance
metrics = percent_unfair
tolerance_hours = {}

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = easy

[seeds]
list = 1
)";
  auto with_tolerance = [&](const std::string& hours_text) {
    std::string spec_text = text;
    spec_text.replace(spec_text.find("{}"), 2, hours_text);
    return run_campaign(parse(spec_text));
  };
  // 0.000278 h casts to a 1 s tolerance — the exact threshold of the
  // "any miss" strict count, so percent_unfair evaluated at it must coincide
  // with the default-tolerance report's percent_unfair_any.
  const CampaignResult strict = with_tolerance("0.000278");
  const CampaignResult loose = with_tolerance("24");
  // A tighter tolerance can only count more jobs as unfair; on this loaded
  // trace it genuinely does, proving the tolerance reached the FST metric.
  EXPECT_GT(strict.cells[0].metrics[0], loose.cells[0].metrics[0]);
  EXPECT_DOUBLE_EQ(strict.cells[0].metrics[0], loose.reports[0].fairness.percent_unfair_any);
}

TEST(Campaign, BuildWorkloadAppliesTransformsInOrder) {
  WorkloadSpec spec;
  spec.scale = 0.02;
  spec.head = 50;
  spec.rescale_load = 2.0;
  const Workload transformed = build_workload(spec, 7);
  ASSERT_EQ(transformed.jobs.size(), 50u);

  WorkloadSpec plain;
  plain.scale = 0.02;
  const Workload original = build_workload(plain, 7);
  ASSERT_GE(original.jobs.size(), 50u);
  // head keeps the first 50 jobs; rescale_load 2.0 halves every inter-arrival
  // gap (so the 50-job head spans half the time, runtimes untouched).
  EXPECT_EQ(transformed.jobs[49].runtime, original.jobs[49].runtime);
  EXPECT_LT(transformed.jobs[49].submit, original.jobs[49].submit);
}

TEST(Campaign, GridDecayAxisSplitsEngineGroups) {
  const ScenarioSpec spec = parse(R"(
[campaign]
name = decay_axis
metrics = avg_wait

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.all

[grid]
decay = 0.5, 0.9
)");
  const CampaignPlan plan = expand_campaign(spec);
  ASSERT_EQ(plan.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.cells[0].decay, 0.5);
  EXPECT_DOUBLE_EQ(plan.cells[1].decay, 0.9);
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.aggregates.size(), 2u);
  // Same policy label, distinct engine knob: both aggregates survive.
  EXPECT_EQ(result.aggregates[0].policy, result.aggregates[1].policy);
  EXPECT_NE(result.aggregates[0].decay, result.aggregates[1].decay);
}

TEST(Campaign, SummaryJsonPinsSwfSizingProvenance) {
  const ScenarioSpec spec =
      parse_spec_file(kSourceDir + "/examples/campaigns/swf_replay.spec");
  const CampaignResult result = run_campaign(spec);
  ASSERT_TRUE(result.swf_info.has_value());
  const std::string json = json_of(result);
  // The exact provenance line: where the 1524-node figure came from, plus the
  // ingest counters, immediately after the source.
  EXPECT_NE(json.find("\"swf_sizing\": {\"description\": \"" +
                      result.swf_info->describe_sizing() +
                      "\", \"total_records\": 194, \"skipped_records\": 0, "
                      "\"filtered_records\": 14}"),
            std::string::npos)
      << json;
  EXPECT_NE(result.swf_info->describe_sizing().find("1524 nodes (SWF header MaxNodes"),
            std::string::npos);
  // Ross-sourced campaigns have no SWF provenance to report.
  const ScenarioSpec ross = parse(R"(
[campaign]
name = no_swf
metrics = avg_wait

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = easy
)");
  EXPECT_EQ(json_of(run_campaign(ross)).find("swf_sizing"), std::string::npos);
}

TEST(Campaign, SwfWorkloadMatchesEagerReadPlusHead) {
  // Campaigns ingest SWF with the streaming reader, the head cap taken inside
  // the scan. The eager reader plus the head transform is the reference: the
  // workload and the ingest provenance must match it exactly, with and
  // without a cap.
  ScenarioSpec spec = parse_spec_file(kSourceDir + "/examples/campaigns/swf_replay.spec");
  const workload::SwfReadResult eager = workload::read_swf_file(spec.workload.swf_file);
  for (const std::size_t head : {std::size_t{0}, std::size_t{50}}) {
    spec.workload.head = head;
    SCOPED_TRACE("head " + std::to_string(head));
    workload::SwfReadResult info;
    test::expect_same_jobs(build_workload(spec.workload, 0, &info),
                           head > 0 ? workload::head(eager.workload, head) : eager.workload);
    EXPECT_EQ(info.total_records, eager.total_records);
    EXPECT_EQ(info.skipped_records, eager.skipped_records);
    EXPECT_EQ(info.filtered_records, eager.filtered_records);
    EXPECT_EQ(info.describe_sizing(), eager.describe_sizing());
  }
}

TEST(Campaign, PolicyMetricsComputeTheForkedFst) {
  // Selecting a policy_* metric turns on the forked-engine FST for the
  // sweep; the cell numbers must be bit-identical to running the same
  // workload through an ExperimentRunner with policy_knowledge set.
  const ScenarioSpec spec = parse(R"(
[campaign]
name = policy_fst
metrics = policy_percent_unfair, policy_avg_miss_all, policy_max_miss, avg_wait

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.all, cons.nomax
)");
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.count(CellStatus::Ok), 2u);

  const Workload w = build_workload(spec.workload, result.plan.seeds.at(0));
  metrics::FstOptions fst;
  fst.tolerance = spec.tolerance;
  fst.policy_knowledge = true;
  sim::ExperimentRunner runner(w, {}, fst);
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const sim::ExperimentResult& reference = runner.run(result.plan.cells[i].policy);
    ASSERT_TRUE(reference.report.has_policy_fairness);
    for (std::size_t m = 0; m < spec.metrics.size(); ++m)
      EXPECT_DOUBLE_EQ(result.cells[i].metrics[m],
                       metrics::metric_value(reference.report, spec.metrics[m]))
          << result.plan.cells[i].policy.display_name() << " / " << spec.metrics[m];
    // The forked FST is a different quantity from the hybrid FST — equal
    // vectors would mean the wiring read the wrong field.
    EXPECT_NE(reference.report.policy_fairness.fair_start,
              reference.report.fairness.fair_start);
  }
}

TEST(Campaign, PolicyMetricOnPlainReportThrows) {
  // A policy_* metric against a report computed without policy_knowledge is
  // a wiring bug and must fail loudly, never aggregate zeros.
  const Workload w = workload::generate_small_workload(3, 40, 32, days(1));
  sim::ExperimentRunner runner(w);
  const sim::ExperimentResult& run = runner.run(*policy_from_name("easy"));
  EXPECT_FALSE(run.report.has_policy_fairness);
  EXPECT_THROW(metrics::metric_value(run.report, "policy_percent_unfair"),
               std::invalid_argument);
}

}  // namespace
}  // namespace psched::scenario
