// campaign_bench: the in-process half of the campaign benchmark. run.py
// drives it; each subcommand is its own process so the thread-pool size
// (PSCHED_THREADS, read once when the global pool starts) and the peak
// resident memory belong to exactly one setting.
//
//   campaign_bench time SPEC --out DIR --jobs N [--setup-reps K] [--armed-rerun]
//       Times set-up (parse + build + expand) K times and run_campaign once,
//       reports the process's peak RSS and writes cells.csv and summary.json
//       into DIR. --armed-rerun then arms obs, runs the campaign once more
//       and reports its counters.
//   campaign_bench redrive SPEC --cells CSV [--lanes N]
//       Re-drives every cell through the layers' public functions and checks
//       that each reproduces its cells.csv row exactly. No timing.
//   campaign_bench trace SPEC --out DIR
//       The traced run: spans around the setup calls, an untraced and a
//       traced run_campaign, then a re-drive of every cell with spans around
//       each layer call and a timing decorator around the scheduler. Writes
//       the store, spans.json, and the per-layer numbers.
//
// Every subcommand prints one JSON object as its last line of stdout.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "metrics/fst.hpp"
#include "metrics/report.hpp"
#include "metrics/selection.hpp"
#include "metrics/standard.hpp"
#include "obs/obs.hpp"
#include "scenario/campaign.hpp"
#include "scenario/journal.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"
#include "sim/policy_fst.hpp"
#include "util/atomic_file.hpp"

namespace {

using namespace psched;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) { return static_cast<double>(now_ns() - start_ns) * 1e-9; }

// --- JSON output -------------------------------------------------------------

std::string json_number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string json_string(const std::string& text) { return '"' + scenario::json_escape(text) + '"'; }

/// A flat JSON object built in insertion order.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value) { return raw(key, json_number(value)); }
  JsonObject& add(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& add(const std::string& key, bool value) { return raw(key, value ? "true" : "false"); }
  JsonObject& add(const std::string& key, const std::string& value) {
    return raw(key, json_string(value));
  }
  JsonObject& add(const std::string& key, const std::vector<double>& values) {
    std::string list = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
      list += (i ? "," : "") + json_number(values[i]);
    return raw(key, list + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + json_string(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- command line --------------------------------------------------------------

struct Args {
  std::string command;
  std::string spec;
  std::map<std::string, std::string> options;
  bool armed_rerun = false;

  std::string get(const std::string& name) const {
    const auto it = options.find(name);
    if (it == options.end()) throw std::invalid_argument("missing option --" + name);
    return it->second;
  }
  double number(const std::string& name, double fallback) const {
    return options.count(name) ? std::stod(options.at(name)) : fallback;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 3) throw std::invalid_argument("usage: campaign_bench time|redrive|trace SPEC [options]");
  Args args;
  args.command = argv[1];
  args.spec = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument " + arg);
    const std::string name = arg.substr(2);
    if (name == "armed-rerun") {
      args.armed_rerun = true;
    } else {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      args.options[name] = argv[++i];
    }
  }
  return args;
}

// --- shared helpers -------------------------------------------------------------

struct Store {
  std::string cells_csv;
  std::string summary_json;
};

Store render_store(const scenario::CampaignResult& result) {
  std::ostringstream cells;
  scenario::write_cells_csv(result, cells);
  std::ostringstream summary;
  scenario::write_summary_json(result, summary);
  return {cells.str(), summary.str()};
}

/// summary.json minus the block an armed campaign adds. campaign.cpp emits it
/// between the lines `  "breakdown": [` and `  ],`, delimiters that appear
/// nowhere else; arming obs must change no other byte.
std::string without_breakdown(const std::string& summary) {
  const std::size_t begin = summary.find("\n  \"breakdown\": [\n");
  if (begin == std::string::npos) return summary;
  const std::string close = "\n  ],\n";
  const std::size_t end = summary.find(close, begin);
  if (end == std::string::npos) return summary;
  return summary.substr(0, begin + 1) + summary.substr(end + close.size());
}

/// Arming obs changed no cells.csv byte and no summary.json byte outside the
/// breakdown block.
bool same_outside_breakdown(const Store& plain, const Store& armed) {
  return armed.cells_csv == plain.cells_csv &&
         without_breakdown(armed.summary_json) == plain.summary_json;
}

void write_store(const Store& store, const std::string& dir) {
  util::atomic_write_file(dir + "/cells.csv", store.cells_csv);
  util::atomic_write_file(dir + "/summary.json", store.summary_json);
}

std::map<std::string, std::uint64_t> counters_now() {
  std::map<std::string, std::uint64_t> values;
  for (const obs::CounterValue& counter : obs::counters_snapshot())
    values[counter.name] = counter.value;
  return values;
}

/// Counter deltas between two snapshots; gauges (max-style counters) keep
/// their level, since a high-water mark has no meaningful difference.
std::map<std::string, std::uint64_t> counter_delta(const std::map<std::string, std::uint64_t>& before,
                                                   const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> delta;
  for (const auto& [name, value] : after) {
    const bool gauge = name == "pool.queue_depth_high_water" || name == "fst.peak_batch_bytes";
    delta[name] = gauge ? value : value - before.at(name);
  }
  return delta;
}

std::string counters_json(const std::map<std::string, std::uint64_t>& counters) {
  JsonObject out;
  for (const auto& [name, value] : counters) out.add(name, value);
  return out.str();
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// --- benchmark-side spans ---------------------------------------------------------

/// In-memory span log: name, argument, parent (index of the enclosing span,
/// -1 at top level) and [start, end). Spans nest through an open-span stack;
/// everything is written out when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string arg;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  };

  int open(const std::string& name, const std::string& arg = "") {
    spans_.push_back({name, arg, stack_.empty() ? -1 : stack_.back(), now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& span : spans_)
      if (span.name == name) sum += span.seconds();
    return sum;
  }

  /// Summed time of the spans called `name` that none of their child spans
  /// covers.
  double self_total(const std::string& name) const {
    std::vector<double> children(spans_.size(), 0.0);
    for (const Span& span : spans_)
      if (span.parent >= 0) children[static_cast<std::size_t>(span.parent)] += span.seconds();
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) sum += spans_[i].seconds() - children[i];
    return sum;
  }

  /// Chrome trace-event JSON (loads in ui.perfetto.dev).
  std::string chrome_json() const {
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::string out = "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      JsonObject event;
      event.add("name", span.name)
          .add("ph", std::string("X"))
          .add("ts", static_cast<double>(span.start_ns - origin) * 1e-3)
          .add("dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3)
          .add("pid", std::uint64_t{1})
          .add("tid", std::uint64_t{1})
          .raw("args", JsonObject()
                           .add("arg", span.arg)
                           .add("parent", static_cast<double>(span.parent))
                           .str());
      out += event.str() + (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    return out + "]}\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, const std::string& arg = "")
      : log_(log), id_(log ? log->open(name, arg) : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }

 private:
  SpanLog* log_;
  int id_;
};

// --- the scheduler timing decorator --------------------------------------------------

/// What the decorator measured, pooled over every cell it wrapped.
struct SchedulerProbe {
  std::int64_t total_ns = 0;
  std::uint64_t calls = 0;                ///< forwarded calls, each with one timed bracket
  std::vector<std::uint32_t> collect_ns;  ///< one sample per collect_starts call
  std::uint64_t useful_passes = 0;        ///< collect_starts calls that started >= 1 job
  std::int64_t depth = 0;                 ///< running submits - starts of the current cell
  double depth_sum = 0.0;                 ///< depth seen by each pass
  std::int64_t depth_max = 0;
};

/// Forwards every Scheduler call to the policy's own scheduler and times it
/// from outside: the only way the benchmark can see scheduler time without
/// timers inside the program.
class TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(std::unique_ptr<Scheduler> inner, SchedulerProbe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  std::string name() const override { return inner_->name(); }

  void on_submit(JobId id) override {
    bind();
    const std::int64_t t0 = now_ns();
    inner_->on_submit(id);
    probe_->total_ns += now_ns() - t0;
    ++probe_->calls;
    ++probe_->depth;
  }

  void on_complete(JobId id) override {
    bind();
    const std::int64_t t0 = now_ns();
    inner_->on_complete(id);
    probe_->total_ns += now_ns() - t0;
    ++probe_->calls;
  }

  void collect_starts(std::vector<JobId>& starts) override {
    bind();
    const std::size_t before = starts.size();
    probe_->depth_sum += static_cast<double>(probe_->depth);
    probe_->depth_max = std::max(probe_->depth_max, probe_->depth);
    const std::int64_t t0 = now_ns();
    inner_->collect_starts(starts);
    const std::int64_t elapsed = now_ns() - t0;
    probe_->total_ns += elapsed;
    ++probe_->calls;
    probe_->collect_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::int64_t>(elapsed, std::numeric_limits<std::uint32_t>::max())));
    const std::size_t started = starts.size() - before;
    if (started > 0) ++probe_->useful_passes;
    probe_->depth -= static_cast<std::int64_t>(started);
  }

  std::optional<Time> next_wakeup() const override {
    bind();
    const std::int64_t t0 = now_ns();
    std::optional<Time> wake = inner_->next_wakeup();
    probe_->total_ns += now_ns() - t0;
    ++probe_->calls;
    return wake;
  }

  std::unique_ptr<Scheduler> clone() const override {
    std::unique_ptr<Scheduler> inner = inner_->clone();
    if (!inner) return nullptr;
    return std::make_unique<TimedScheduler>(std::move(inner), *probe_);
  }

 private:
  /// attach() is not virtual, so the wrapped scheduler is attached to the
  /// decorator's context on first use.
  void bind() const {
    if (bound_) return;
    inner_->attach(ctx());
    bound_ = true;
  }

  std::unique_ptr<Scheduler> inner_;
  SchedulerProbe* probe_;
  mutable bool bound_ = false;
};

/// Cost of one now_ns() read, from back-to-back reads. A timed bracket
/// around nothing reads about this much, so each forwarded call puts one read
/// of probe cost into its bracket (scheduler time) and about one more outside
/// it (engine time); the traced run subtracts both.
double clock_read_ns() {
  constexpr int kReads = 1 << 20;
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t start = now_ns();
    std::int64_t last = start;
    for (int i = 0; i < kReads; ++i) last = now_ns();
    rounds.push_back(static_cast<double>(last - start) / kReads);
  }
  std::nth_element(rounds.begin(), rounds.begin() + 2, rounds.end());
  return rounds[2];
}

// --- re-driving one cell through the layers --------------------------------------------

struct CellRun {
  metrics::PolicyReport report;
  std::size_t jobs = 0;
  std::size_t snapshots = 0;
  std::size_t snapshot_waiting = 0;
  sim::PolicyFstStats fst_stats;
};

bool wants_policy_fst(const scenario::ScenarioSpec& spec) {
  return std::any_of(spec.metrics.begin(), spec.metrics.end(),
                     [](const std::string& name) { return name.rfind("policy_", 0) == 0; });
}

/// The cell's computation, through the same public calls the campaign's
/// ExperimentRunner makes, one layer at a time. With a span log and a probe
/// every call is timed; without them this is the plain quiet re-drive.
CellRun run_cell(const scenario::ScenarioSpec& spec, const scenario::CampaignCell& cell,
                 const Workload& workload, SpanLog* spans, SchedulerProbe* probe) {
  sim::EngineConfig config;
  config.policy = cell.policy;
  config.fairshare_decay = cell.decay;
  config.wcl_enforcement = spec.wcl_enforcement;
  metrics::FstOptions fst;
  fst.tolerance = spec.tolerance;

  CellRun run;
  run.jobs = workload.jobs.size();
  ScopedSpan cell_span(spans, "cell", cell.policy.display_name());
  std::unique_ptr<Scheduler> scheduler = make_scheduler(cell.policy);
  if (probe) {
    probe->depth = 0;
    scheduler = std::make_unique<TimedScheduler>(std::move(scheduler), *probe);
  }
  SimulationResult result;
  {
    ScopedSpan span(spans, "engine.run");
    result = sim::SimulationEngine(workload, config, std::move(scheduler)).run();
  }
  run.snapshots = result.snapshots.size();
  for (const ArrivalSnapshot& snapshot : result.snapshots) run.snapshot_waiting += snapshot.waiting.size();

  run.report.policy = result.policy_name;
  {
    ScopedSpan span(spans, "fst.hybrid");
    run.report.fairness = metrics::hybrid_fairshare_fst(result, fst);
  }
  {
    ScopedSpan span(spans, "fst.standard");
    run.report.standard = metrics::compute_standard(result);
  }
  if (wants_policy_fst(spec)) {
    ScopedSpan span(spans, "pfst");
    sim::PolicyFstOptions options;
    options.stats = &run.fst_stats;
    run.report.policy_fairness.fair_start = sim::policy_no_later_arrivals_fst(workload, config, options);
    metrics::aggregate_fst(result, fst, run.report.policy_fairness);
    run.report.has_policy_fairness = true;
  }
  return run;
}

/// Empty when `row` (a cells.csv line) is exactly what `cell` reproduced;
/// otherwise the first difference.
std::string compare_row(const scenario::ScenarioSpec& spec, const scenario::CampaignCell& cell,
                        const metrics::PolicyReport& report, const std::string& row) {
  const std::vector<std::string> fields = split_csv_line(row);
  const std::size_t metric_base = 6;
  if (fields.size() != metric_base + spec.metrics.size())
    return "cell " + std::to_string(cell.index) + ": malformed row '" + row + "'";
  if (fields[0] != std::to_string(cell.index) || fields[4] != cell.policy.display_name())
    return "cell " + std::to_string(cell.index) + ": row is for '" + fields[4] + "'";
  if (fields[5] != "ok") return "cell " + std::to_string(cell.index) + ": status " + fields[5];
  for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
    const std::string value =
        scenario::format_round_trip_double(metrics::metric_value(report, spec.metrics[m]));
    if (value != fields[metric_base + m])
      return "cell " + std::to_string(cell.index) + " " + spec.metrics[m] + ": re-drive " + value +
             ", store " + fields[metric_base + m];
  }
  return "";
}

/// One workload per replicate seed, keyed the way the plan's cells name them.
std::map<std::uint64_t, Workload> build_workloads(const scenario::ScenarioSpec& spec,
                                                  SpanLog* spans) {
  std::map<std::uint64_t, Workload> workloads;
  for (const std::uint64_t seed : spec.effective_seeds()) {
    ScopedSpan span(spans, "workload.build", "seed=" + std::to_string(seed));
    workloads.emplace(seed, scenario::build_workload(spec.workload, seed));
  }
  return workloads;
}

std::vector<std::string> store_rows(const std::string& cells_path, std::size_t cells) {
  std::vector<std::string> lines = read_lines(cells_path);
  if (lines.size() != cells + 1)
    throw std::runtime_error(cells_path + ": " + std::to_string(lines.size()) +
                             " lines, the plan has " + std::to_string(cells) + " cells");
  lines.erase(lines.begin());
  return lines;
}

// --- subcommands ------------------------------------------------------------------

int cmd_time(const Args& args) {
  const auto setup_reps = static_cast<std::size_t>(args.number("setup-reps", 1));
  scenario::ScenarioSpec spec;
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < std::max<std::size_t>(setup_reps, 1); ++rep) {
    const std::int64_t t0 = now_ns();
    spec = scenario::parse_spec_file(args.spec);
    const std::map<std::uint64_t, Workload> workloads = build_workloads(spec, nullptr);
    const scenario::CampaignPlan plan = scenario::expand_campaign(spec);
    setup_s.push_back(seconds_since(t0));
    if (plan.cells.empty() || workloads.empty()) throw std::runtime_error("empty campaign plan");
  }

  scenario::CampaignOptions options;
  options.jobs = static_cast<std::size_t>(args.number("jobs", 1));
  const std::int64_t t0 = now_ns();
  const scenario::CampaignResult result = scenario::run_campaign(spec, options);
  const double campaign_s = seconds_since(t0);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::uint64_t attempted = result.cells.size();
  std::uint64_t not_ok = result.cells.size() - result.count(scenario::CellStatus::Ok);

  const Store store = render_store(result);
  write_store(store, args.get("out"));

  std::string armed_json;
  bool armed_identical = true;
  if (args.armed_rerun) {
    // The same campaign once more with obs armed: the scheduling-class
    // counters (pool tasks, queue high-water) only mean something at the
    // parallel setting, and arming must change no cells.csv byte.
    obs::arm();
    const auto before = counters_now();
    const scenario::CampaignResult armed = scenario::run_campaign(spec, options);
    armed_json = counters_json(counter_delta(before, counters_now()));
    armed_identical = same_outside_breakdown(store, render_store(armed));
    attempted += armed.cells.size();
    not_ok += armed.cells.size() - armed.count(scenario::CellStatus::Ok);
  }

  JsonObject out;
  out.add("setup_s", setup_s)
      .add("campaign_s", campaign_s)
      .add("peak_rss_mb", peak_rss_mb)
      .add("attempted", attempted)
      .add("not_ok", not_ok)
      .add("jobs", static_cast<std::uint64_t>(result.traces.empty() ? 0 : result.traces.front().jobs));
  if (!armed_json.empty())
    out.raw("armed_counters", armed_json).add("armed_store_identical", armed_identical);
  std::cout << out.str() << std::endl;
  return 0;
}

int cmd_redrive(const Args& args) {
  const scenario::ScenarioSpec spec = scenario::parse_spec_file(args.spec);
  const scenario::CampaignPlan plan = scenario::expand_campaign(spec);
  const std::map<std::uint64_t, Workload> workloads = build_workloads(spec, nullptr);
  const std::vector<std::string> rows = store_rows(args.get("cells"), plan.cells.size());

  const std::size_t lanes =
      std::clamp<std::size_t>(static_cast<std::size_t>(args.number("lanes", 1)), 1, plan.cells.size());
  std::vector<std::string> problems(plan.cells.size());
  std::atomic<std::size_t> next{0};
  const auto lane = [&] {
    for (std::size_t i = next++; i < plan.cells.size(); i = next++) {
      const scenario::CampaignCell& cell = plan.cells[i];
      try {
        const CellRun run = run_cell(spec, cell, workloads.at(cell.seed), nullptr, nullptr);
        problems[i] = compare_row(spec, cell, run.report, rows[i]);
      } catch (const std::exception& error) {
        problems[i] = "cell " + std::to_string(i) + ": " + error.what();
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < lanes; ++t) threads.emplace_back(lane);
  lane();
  for (std::thread& thread : threads) thread.join();

  std::uint64_t mismatches = 0;
  std::string first;
  for (const std::string& problem : problems)
    if (!problem.empty() && mismatches++ == 0) first = problem;
  std::cout << JsonObject()
                   .add("cells", static_cast<std::uint64_t>(plan.cells.size()))
                   .add("mismatches", mismatches)
                   .add("first_mismatch", first)
                   .str()
            << std::endl;
  return 0;
}

/// Percentile of the per-call samples, less the clock read each carries.
double percentile_us(std::vector<std::uint32_t> samples, double q, double read_ns) {
  if (samples.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k), samples.end());
  return std::max(0.0, static_cast<double>(samples[k]) - read_ns) * 1e-3;
}

int cmd_trace(const Args& args) {
  const std::string out_dir = args.get("out");
  const double read_ns = clock_read_ns();
  SpanLog spans;

  scenario::ScenarioSpec spec;
  scenario::CampaignPlan plan;
  {
    ScopedSpan span(&spans, "scenario.expand");
    spec = scenario::parse_spec_file(args.spec);
    plan = scenario::expand_campaign(spec);
  }
  const std::map<std::uint64_t, Workload> workloads = build_workloads(spec, &spans);

  scenario::CampaignOptions options;
  options.jobs = 1;
  scenario::CampaignResult untraced;
  {
    ScopedSpan span(&spans, "campaign.untraced");
    untraced = scenario::run_campaign(spec, options);
  }
  Store store;
  {
    ScopedSpan span(&spans, "store.write");
    {
      ScopedSpan cells(&spans, "write_cells_csv");
      std::ostringstream text;
      scenario::write_cells_csv(untraced, text);
      store.cells_csv = text.str();
      util::atomic_write_file(out_dir + "/cells.csv", store.cells_csv);
    }
    {
      ScopedSpan summary(&spans, "write_summary_json");
      std::ostringstream text;
      scenario::write_summary_json(untraced, text);
      store.summary_json = text.str();
      util::atomic_write_file(out_dir + "/summary.json", store.summary_json);
    }
  }

  obs::arm();
  const auto c0 = counters_now();
  scenario::CampaignResult traced;
  {
    ScopedSpan span(&spans, "campaign.traced");
    traced = scenario::run_campaign(spec, options);
  }
  const auto campaign_counters = counter_delta(c0, counters_now());
  double cell_wall_s = 0.0;
  for (const scenario::CellResult& cell : traced.cells) cell_wall_s += cell.breakdown.wall_seconds;

  // Re-drive every cell through the layers, in plan order.
  const std::vector<std::string> rows = store_rows(out_dir + "/cells.csv", plan.cells.size());
  SchedulerProbe probe;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  std::size_t cell_jobs = 0;
  std::size_t snapshots = 0;
  std::size_t snapshot_waiting = 0;
  sim::PolicyFstStats fst_totals;
  const auto c2 = counters_now();
  {
    ScopedSpan span(&spans, "redrive");
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
      const scenario::CampaignCell& cell = plan.cells[i];
      const CellRun run = run_cell(spec, cell, workloads.at(cell.seed), &spans, &probe);
      const std::string problem = compare_row(spec, cell, run.report, rows[i]);
      if (!problem.empty() && mismatches++ == 0) first_mismatch = problem;
      cell_jobs += run.jobs;
      snapshots += run.snapshots;
      snapshot_waiting += run.snapshot_waiting;
      fst_totals.forks += run.fst_stats.forks;
      fst_totals.drained += run.fst_stats.drained;
      fst_totals.resolved_from_master += run.fst_stats.resolved_from_master;
      fst_totals.peak_batch_bytes = std::max(fst_totals.peak_batch_bytes, run.fst_stats.peak_batch_bytes);
    }
  }
  const auto redrive_counters = counter_delta(c2, counters_now());
  util::atomic_write_file(out_dir + "/spans.json", spans.chrome_json());

  const double campaign_traced_s = spans.total("campaign.traced");
  const double orchestration_s = campaign_traced_s - cell_wall_s;
  const double engine_run_s = spans.total("engine.run");
  const double probe_bracket_s = static_cast<double>(probe.calls) * read_ns * 1e-9;
  const double sched_total_s = static_cast<double>(probe.total_ns) * 1e-9 - probe_bracket_s;
  const double engine_self_s = engine_run_s - sched_total_s - 2.0 * probe_bracket_s;
  const double hybrid_s = spans.total("fst.hybrid");
  const double standard_s = spans.total("fst.standard");
  const double pfst_s = spans.total("pfst");
  const double calls = static_cast<double>(probe.collect_ns.size());
  const auto counter = [&](const char* name) { return redrive_counters.at(name); };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  JsonObject layers;
  layers.add("workload.build_s", spans.total("workload.build"))
      .add("scenario.expand_s", spans.total("scenario.expand"))
      .add("scenario.orchestration_s", orchestration_s)
      .add("scenario.store_write_s", spans.total("store.write"))
      .add("engine.run_s", engine_run_s)
      .add("engine.self_s", engine_self_s)
      .add("engine.events", counter("engine.events_delivered"))
      .add("engine.events_per_job",
           ratio(static_cast<double>(counter("engine.events_delivered")), static_cast<double>(cell_jobs)))
      .add("engine.sched_invocations", counter("engine.scheduler_invocations"))
      .add("sched.total_s", sched_total_s)
      .add("sched.collect_starts.calls", static_cast<std::uint64_t>(probe.collect_ns.size()))
      .add("sched.collect_starts.p50_us", percentile_us(probe.collect_ns, 0.50, read_ns))
      .add("sched.collect_starts.p99_us", percentile_us(probe.collect_ns, 0.99, read_ns))
      .add("sched.useful_pass_ratio", ratio(static_cast<double>(probe.useful_passes), calls))
      .add("sched.queue_depth.mean", ratio(probe.depth_sum, calls))
      .add("sched.queue_depth.max", static_cast<std::uint64_t>(probe.depth_max))
      .add("sched.replan_full", counter("scheduler.replan_full"))
      .add("sched.replan_incremental", counter("scheduler.replan_incremental"))
      .add("profile.gap_index.probes", counter("profile.gap_index.probes"))
      .add("profile.gap_index.skips", counter("profile.gap_index.skips"))
      .add("fst.hybrid_s", hybrid_s)
      .add("fst.snapshot_waiting.mean",
           ratio(static_cast<double>(snapshot_waiting), static_cast<double>(snapshots)))
      .add("fst.standard_s", standard_s)
      .add("pfst.s", pfst_s)
      .add("pfst.forks", static_cast<std::uint64_t>(fst_totals.forks))
      .add("pfst.drained", static_cast<std::uint64_t>(fst_totals.drained))
      .add("pfst.resolved_ratio", ratio(static_cast<double>(fst_totals.resolved_from_master),
                                        static_cast<double>(fst_totals.forks)))
      .add("pfst.peak_batch_bytes", static_cast<std::uint64_t>(fst_totals.peak_batch_bytes))
      .add("obs.trace_overhead_s", campaign_traced_s - spans.total("campaign.untraced"))
      .add("unaccounted_s", spans.self_total("cell"));

  JsonObject out;
  out.raw("layers", layers.str())
      .raw("campaign_counters", counters_json(campaign_counters))
      .raw("redrive_counters", counters_json(redrive_counters))
      .add("cells", static_cast<std::uint64_t>(plan.cells.size()))
      .add("clock_read_ns", read_ns)
      .add("probe_calls", probe.calls)
      .add("attempted", static_cast<std::uint64_t>(untraced.cells.size() + traced.cells.size()))
      .add("not_ok", static_cast<std::uint64_t>(
                         untraced.cells.size() - untraced.count(scenario::CellStatus::Ok) +
                         traced.cells.size() - traced.count(scenario::CellStatus::Ok)))
      .add("traced_store_identical", same_outside_breakdown(store, render_store(traced)))
      .add("mismatches", mismatches)
      .add("first_mismatch", first_mismatch);
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "time") return cmd_time(args);
    if (args.command == "redrive") return cmd_redrive(args);
    if (args.command == "trace") return cmd_trace(args);
    throw std::invalid_argument("unknown command " + args.command);
  } catch (const std::exception& error) {
    std::cerr << "campaign_bench: " << error.what() << '\n';
    return 2;
  }
}
