// psched_campaign: run a declarative scenario campaign end to end.
//
//   psched_campaign SPEC [options]
//     --out DIR        write DIR/cells.csv (one row per cell), DIR/summary.json
//                      (per-policy mean + bootstrap CI) and DIR/journal.jsonl
//                      (append-only crash journal, one fsynced record per
//                      finished cell)
//     --jobs N         concurrent simulations per policy sweep (default:
//                      global pool size, env PSCHED_THREADS; 1 = serial; every
//                      output is byte-identical for any N)
//     --resume         replay DIR/journal.jsonl: skip cells already journaled
//                      ok, re-run failed/timed-out/cancelled ones; the final
//                      results store is byte-identical to an uninterrupted run
//     --cell-timeout S cancel any single cell after S seconds (timeout row)
//     --wall-budget S  stop the whole campaign after S seconds (interrupted)
//     --keep-going     keep scheduling cells after a failed cell (default:
//                      halt; already-running cells still finish either way)
//     --dry-run        parse the spec, print the expanded cell plan, and exit
//     --csv            print stdout tables as CSV instead of aligned text
//     --trace FILE     arm the observability layer and export a Chrome
//                      trace-event / Perfetto JSON trace to FILE (equivalent
//                      to PSCHED_TRACE=FILE; see docs/observability.md).
//                      Result stores stay byte-identical to an untraced run
//     --stats          arm the observability layer and print the per-cell
//                      breakdown table plus the nonzero subsystem counters
//
// SIGINT/SIGTERM request a cooperative stop: in-flight cells cancel at their
// next event boundary, the journal is already durable, and a partial results
// store marked "interrupted" is written. A second signal hard-exits (130).
//
// Exit codes: 0 every cell ok; 2 usage/spec/journal errors (nothing ran);
// 3 campaign completed but some cells failed, timed out or were skipped;
// 4 interrupted (signal or wall budget) — resume with --resume.
//
// A single-seed campaign additionally prints the paper's figure tables:
// fairness, performance, and average miss and turnaround by width (see
// examples/campaigns/fig14_all_policies.spec for Figures 8-19).

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "scenario/campaign.hpp"
#include "util/atomic_file.hpp"
#include "util/table.hpp"

namespace {

using namespace psched;

/// Campaign-wide stop, tripped by SIGINT/SIGTERM or --wall-budget. A global
/// so the signal handler can reach it; request_stop is a single relaxed
/// atomic store and therefore async-signal-safe.
util::StopSource g_stop;
std::atomic<int> g_signals{0};

extern "C" void on_stop_signal(int) {
  if (g_signals.fetch_add(1, std::memory_order_relaxed) == 0)
    g_stop.request_stop();  // first signal: cooperative stop + flushed store
  else
    _exit(130);  // second signal: the user really means it
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "psched_campaign: " << message << "\n(run with --help for usage)\n";
  std::exit(2);
}

void print_usage() {
  std::cout <<
      "psched_campaign — declarative scenario campaigns (spec format: docs/campaign_specs.md)\n"
      "  psched_campaign SPEC [--out DIR] [--jobs N] [--resume] [--cell-timeout S]\n"
      "                  [--wall-budget S] [--keep-going] [--dry-run] [--csv]\n"
      "  --out DIR        write DIR/cells.csv, DIR/summary.json, DIR/journal.jsonl\n"
      "  --jobs N         concurrent simulations per sweep (1 = serial; output identical)\n"
      "  --resume         skip cells already journaled ok (requires --out)\n"
      "  --cell-timeout S cancel a cell after S seconds -> timeout status row\n"
      "  --wall-budget S  stop the campaign after S seconds -> interrupted store\n"
      "  --keep-going     keep scheduling cells after a failure (default: halt)\n"
      "  --dry-run        print the expanded cell plan without simulating\n"
      "  --csv            CSV tables on stdout\n"
      "  --trace FILE     export a Perfetto/Chrome trace-event JSON to FILE\n"
      "  --stats          print the per-cell breakdown and subsystem counters\n"
      "exit codes: 0 all ok, 2 usage/spec error, 3 failed/skipped cells, 4 interrupted\n";
}

/// "3.1e-02 [2.8e-02, 3.4e-02]"-free: plain fixed numbers, mean first.
double parse_seconds(const std::string& arg, const char* text) {
  try {
    const double value = std::stod(text);
    if (value <= 0.0) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    fail(arg + " wants a positive number of seconds, got '" + std::string(text) + "'");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_dir;
  scenario::CampaignOptions options;
  options.keep_going = false;
  double wall_budget = 0.0;
  bool dry_run = false;
  bool csv = false;
  bool stats = false;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) fail("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--jobs") {
      const int parsed = std::atoi(next());
      if (parsed < 1) fail("--jobs must be >= 1");
      options.jobs = static_cast<std::size_t>(parsed);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--cell-timeout") {
      options.cell_timeout = parse_seconds(arg, next());
    } else if (arg == "--wall-budget") {
      wall_budget = parse_seconds(arg, next());
    } else if (arg == "--keep-going") {
      options.keep_going = true;
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--trace") {
      trace_path = next();
      obs::arm();  // armed before any simulation so the whole campaign is traced
    } else if (arg == "--stats") {
      stats = true;
      obs::arm();
    } else if (!arg.empty() && arg[0] == '-') {
      fail("unknown option '" + arg + "'");
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      fail("more than one spec file given");
    }
  }
  if (spec_path.empty()) fail("no spec file given");
  if (options.resume && out_dir.empty()) fail("--resume needs --out (the journal lives there)");

  scenario::ScenarioSpec spec;
  try {
    spec = scenario::parse_spec_file(spec_path);
  } catch (const std::exception& error) {
    std::cerr << "psched_campaign: " << error.what() << '\n';
    return 2;
  }

  const scenario::CampaignPlan plan = scenario::expand_campaign(spec);
  std::cout << "# campaign " << spec.name << ": " << plan.expanded_cells << " expanded -> "
            << plan.cells.size() << " unique cells, " << plan.seeds.size() << " seed"
            << (plan.seeds.size() == 1 ? "" : "s") << ", " << spec.metrics.size()
            << " metrics\n";
  if (dry_run) {
    const util::TextTable table = scenario::plan_table(plan);
    std::cout << (csv ? table.csv() : table.str());
    return 0;
  }

  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) fail("cannot create --out directory " + out_dir + ": " + ec.message());
    options.journal_path = out_dir + "/journal.jsonl";
  }
  if (wall_budget > 0.0) g_stop.set_deadline_after(wall_budget);
  options.stop = g_stop.token();
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);

  scenario::CampaignResult result;
  try {
    result = scenario::run_campaign(spec, options);
  } catch (const std::exception& error) {
    // Spec/workload/journal problems surface here before any cell ran;
    // per-cell failures never throw (they become status rows).
    std::cerr << "psched_campaign: " << error.what() << '\n';
    return 2;
  }

  for (const auto& trace : result.traces) {
    std::cout << "# seed " << trace.seed << ": " << trace.jobs << " jobs, " << trace.system_size
              << " nodes\n";
  }
  if (result.swf_info) {
    std::cout << "# swf " << spec.workload.swf_file << ": " << result.swf_info->total_records
              << " records, skipped " << result.swf_info->skipped_records << " invalid, filtered "
              << result.swf_info->filtered_records << " non-completed\n"
              << "# machine: " << result.swf_info->describe_sizing() << '\n';
  }
  if (options.resume)
    std::cout << "# resume: replayed " << result.replayed_records << " journal records, restored "
              << result.restored_cells << " cells, simulated " << result.simulated_cells << '\n';

  // A single-seed, fully-simulated campaign is one policy sweep per decay,
  // so print the paper's figure tables for it. Restored or non-ok cells have
  // no PolicyReport to tabulate.
  if (plan.seeds.size() == 1 && result.reports_complete) {
    for (const scenario::FigureTable& figure : scenario::figure_tables(result))
      std::cout << "\n== " << figure.title << " ==\n"
                << (csv ? figure.table.csv() : figure.table.str());
  }

  const util::TextTable aggregates = scenario::summary_table(result);
  std::cout << "\n== campaign summary (mean";
  if (plan.seeds.size() > 1)
    std::cout << " [" << util::format_number(spec.bootstrap_confidence * 100.0, 0)
              << "% bootstrap CI] over " << plan.seeds.size() << " seeds";
  std::cout << ") ==\n" << (csv ? aggregates.csv() : aggregates.str());

  const std::size_t failed = result.count(scenario::CellStatus::Failed);
  const std::size_t timeout = result.count(scenario::CellStatus::Timeout);
  const std::size_t cancelled = result.count(scenario::CellStatus::Cancelled);
  const std::size_t pending = result.count(scenario::CellStatus::Pending);
  if (failed + timeout + cancelled + pending > 0) {
    std::cout << "\n# cells: " << result.count(scenario::CellStatus::Ok) << " ok";
    if (failed) std::cout << ", " << failed << " failed";
    if (timeout) std::cout << ", " << timeout << " timeout";
    if (cancelled) std::cout << ", " << cancelled << " cancelled";
    if (pending) std::cout << ", " << pending << " never started";
    std::cout << '\n';
    for (const scenario::CellResult& cell : result.cells)
      if (!cell.error.empty())
        std::cout << "#   cell " << cell.cell.index << " ("
                  << cell.cell.policy.display_name() << "): "
                  << scenario::cell_status_name(cell.status) << ": " << cell.error << '\n';
  }
  if (result.interrupted)
    std::cout << "# campaign interrupted ("
              << (g_signals.load(std::memory_order_relaxed) > 0 ? "signal" : "wall budget")
              << ") — journal is durable, rerun with --resume to finish\n";
  if (result.journal_degraded)
    std::cout << "# journal degraded (" << result.journal_error
              << ") — results are complete, but un-journaled cells would be "
                 "re-simulated by --resume\n";

  if (stats && result.breakdown_enabled) {
    util::TextTable breakdown({"cell", "policy", "status", "provenance", "wall_s", "events",
                               "sched", "fst_forks", "fst_drained", "peak_batch_b"});
    for (const scenario::CellResult& cell : result.cells) {
      const auto& b = cell.breakdown;
      breakdown.begin_row()
          .add_int(static_cast<long long>(cell.cell.index))
          .add(cell.cell.policy.display_name())
          .add(scenario::cell_status_name(cell.status))
          .add(cell.restored ? "journal" : !b.collected ? "none" : b.cache_hit ? "cache"
                                                                               : "computed")
          .add(b.wall_seconds, 3)
          .add_int(static_cast<long long>(b.events_delivered))
          .add_int(static_cast<long long>(b.scheduler_invocations))
          .add_int(static_cast<long long>(b.fst_forks))
          .add_int(static_cast<long long>(b.fst_drained))
          .add_int(static_cast<long long>(b.fst_peak_batch_bytes));
    }
    std::cout << "\n== per-cell breakdown ==\n" << (csv ? breakdown.csv() : breakdown.str());

    util::TextTable counters({"counter", "class", "value"});
    for (const obs::CounterValue& counter : obs::counters_snapshot())
      if (counter.value != 0)
        counters.begin_row()
            .add(counter.name)
            .add(counter.deterministic ? "deterministic" : "scheduling")
            .add_int(static_cast<long long>(counter.value));
    std::cout << "\n== subsystem counters (nonzero) ==\n"
              << (csv ? counters.csv() : counters.str());
  }

  if (!out_dir.empty()) {
    const std::string cells_path = out_dir + "/cells.csv";
    const std::string summary_path = out_dir + "/summary.json";
    try {
      // Atomic + durable: readers never observe a torn store, even if this
      // very write races a crash. An interrupted run still writes a partial
      // store (summary.json says "interrupted") on top of the journal.
      std::ostringstream cells;
      scenario::write_cells_csv(result, cells);
      util::atomic_write_file(cells_path, cells.str());
      std::ostringstream summary;
      scenario::write_summary_json(result, summary);
      util::atomic_write_file(summary_path, summary.str());
    } catch (const std::exception& error) {
      std::cerr << "psched_campaign: " << error.what() << '\n';
      return 2;
    }
    std::cout << "\n# wrote " << cells_path << " and " << summary_path << '\n';
  }

  // Exported last so the trace covers the store writes too. Best-effort: a
  // failed export reports on stderr but never fails a finished campaign.
  if (!trace_path.empty() && obs::write_trace_file(trace_path))
    std::cout << "# wrote trace " << trace_path << '\n';

  if (result.interrupted) return 4;
  if (failed + timeout + cancelled + pending > 0) return 3;
  return 0;
}
