#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched::sim {
namespace {

using test::make_job;
using test::make_workload;

TEST(Engine, EmptyWorkloadCompletes) {
  const Workload w{{}, 8};
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.makespan(), 0);
}

TEST(Engine, RunCallableOnce) {
  const Workload w = make_workload(4, {make_job(0, 10, 1)});
  SimulationEngine engine(w, EngineConfig{});
  engine.run();
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(Engine, RecordsSnapshotsPerArrival) {
  const Workload w = make_workload(4, {make_job(0, 10, 1), make_job(5, 10, 2)});
  const SimulationResult r = simulate(w, EngineConfig{});
  ASSERT_EQ(r.snapshots.size(), 2u);
  EXPECT_EQ(r.snapshots[0].id, 0);
  EXPECT_EQ(r.snapshots[0].at, 0);
  // Snapshot includes the arriving job itself.
  ASSERT_EQ(r.snapshots[0].waiting.size(), 1u);
  EXPECT_EQ(r.snapshots[0].waiting[0].id, 0);
  // Second arrival sees the first job running.
  ASSERT_EQ(r.snapshots[1].running.size(), 1u);
  EXPECT_EQ(r.snapshots[1].running[0].nodes, 1);
  EXPECT_EQ(r.snapshots[1].running[0].remaining, 5);
}

TEST(Engine, SnapshotsDisabled) {
  const Workload w = make_workload(4, {make_job(0, 10, 1)});
  EngineConfig config;
  config.record_snapshots = false;
  const SimulationResult r = simulate(w, config);
  EXPECT_TRUE(r.snapshots.empty());
}

TEST(Engine, FairshareAccountsRunningJobs) {
  // One user monopolizes day 1; the other user's same-day submission is
  // prioritized after the decay boundary publishes usage.
  EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;
  config.policy.starvation_delay = kNoTime;
  const Workload w = make_workload(
      2, {
             make_job(0, days(1) + 100, 2, /*user=*/0),
             make_job(100, hours(1), 2, /*user=*/0),
             make_job(200, hours(1), 2, /*user=*/1),
         });
  const SimulationResult r = simulate(w, config);
  // At the completion (t = 1d+100s) user 0 has a day of published usage.
  EXPECT_LT(r.records[2].start, r.records[1].start);
}

TEST(Engine, MaxRuntimeSplitsAtOriginalSubmitByDefault) {
  EngineConfig config;
  config.policy.max_runtime = hours(72);
  const Workload w = make_workload(8, {make_job(0, hours(100), 2), make_job(5, hours(10), 2)});
  const SimulationResult r = simulate(w, config);
  ASSERT_EQ(r.records.size(), 3u);  // 2 segments + 1 unsplit
  ASSERT_EQ(r.original_job_count, 2u);
  ASSERT_EQ(r.segments_of_original[0].size(), 2u);
  ASSERT_EQ(r.segments_of_original[1].size(), 1u);
  const JobRecord& seg0 = r.records[static_cast<std::size_t>(r.segments_of_original[0][0])];
  const JobRecord& seg1 = r.records[static_cast<std::size_t>(r.segments_of_original[0][1])];
  EXPECT_EQ(seg0.job.submit, 0);
  EXPECT_EQ(seg1.job.submit, 0);  // preprocessing: both at original submit
  EXPECT_EQ(seg0.job.runtime + seg1.job.runtime, hours(100));
  test::expect_no_overallocation(r);
}

TEST(Engine, WclAlwaysTruncatesRuntime) {
  EngineConfig config;
  config.wcl_enforcement = WclEnforcement::Always;
  const Workload w = make_workload(4, {make_job(0, 1000, 2, 0, /*wcl=*/300)});
  const SimulationResult r = simulate(w, config);
  EXPECT_TRUE(r.records[0].killed_at_wcl);
  EXPECT_EQ(r.records[0].finish, 300);
}

TEST(Engine, WclNeverLetsJobsRunLong) {
  const Workload w = make_workload(4, {make_job(0, 1000, 2, 0, /*wcl=*/300)});
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_FALSE(r.records[0].killed_at_wcl);
  EXPECT_EQ(r.records[0].finish, 1000);
}

TEST(Engine, WclKillIfNeededSparesIdleMachine) {
  // Nobody wants the nodes: the over-running job survives to its runtime.
  EngineConfig config;
  config.wcl_enforcement = WclEnforcement::KillIfNeeded;
  const Workload w = make_workload(4, {make_job(0, 1000, 2, 0, /*wcl=*/300)});
  const SimulationResult r = simulate(w, config);
  EXPECT_FALSE(r.records[0].killed_at_wcl);
  EXPECT_EQ(r.records[0].finish, 1000);
}

TEST(Engine, WclKillIfNeededKillsWhenJobWaits) {
  EngineConfig config;
  config.wcl_enforcement = WclEnforcement::KillIfNeeded;
  const Workload w = make_workload(4, {
                                          make_job(0, 1000, 4, 0, /*wcl=*/300),
                                          make_job(10, 50, 4, 1),  // wants the whole machine
                                      });
  const SimulationResult r = simulate(w, config);
  EXPECT_TRUE(r.records[0].killed_at_wcl);
  EXPECT_EQ(r.records[0].finish, 300);
  EXPECT_EQ(r.records[1].start, 300);
}

TEST(Engine, OverrunningJobsBlockConservativeReservations) {
  // Covered at the scheduler level too; here we assert engine-level sanity
  // with several overrunners at once.
  EngineConfig config;
  config.policy.kind = PolicyKind::Conservative;
  WorkloadBuilder edit(psched::workload::generate_small_workload(79, 120, 24, days(3)));
  // Force a batch of under-estimates.
  for (std::size_t i = 0; i < edit.jobs.size(); i += 7)
    edit.jobs[i].wcl = edit.jobs[i].runtime / 2 + 1;
  const Workload w = edit.build();
  const SimulationResult r = simulate(w, config);
  test::expect_no_overallocation(r);
  test::expect_complete_and_causal(r);
}

TEST(Engine, LocIntegralNonNegativeAndBounded) {
  const Workload w = psched::workload::generate_small_workload(83, 200, 32, days(5));
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_GE(r.loc_proc_seconds, 0.0);
  const double cell = static_cast<double>(r.makespan()) * 32.0;
  EXPECT_LE(r.loc_proc_seconds, cell);
  EXPECT_LE(r.busy_proc_seconds, cell + 1e-6);
}

TEST(Engine, CustomSchedulerInjection) {
  // A trivial greedy scheduler driven through simulate_with.
  class Greedy final : public Scheduler {
   public:
    std::string name() const override { return "greedy"; }
    void on_submit(JobId id) override { waiting_.push_back(id); }
    void on_complete(JobId) override {}
    void collect_starts(std::vector<JobId>& starts) override {
      NodeCount free = ctx().free_nodes();
      std::vector<JobId> keep;
      for (const JobId id : waiting_) {
        if (ctx().job(id).nodes <= free) {
          starts.push_back(id);
          free -= ctx().job(id).nodes;
        } else {
          keep.push_back(id);
        }
      }
      waiting_ = std::move(keep);
    }

   private:
    std::vector<JobId> waiting_;
  };

  const Workload w = psched::workload::generate_small_workload(89, 100, 16, days(2));
  EngineConfig config;
  config.policy.name = "greedy";
  const SimulationResult r = simulate_with(w, config, std::make_unique<Greedy>());
  EXPECT_EQ(r.policy_name, "greedy");
  test::expect_no_overallocation(r);
  test::expect_complete_and_causal(r);
}

/// Starts every waiting job at once; the pass that starts `trigger` also
/// asks the engine to start `bogus`, a job that is not waiting. Clones
/// carry `fork_bogus` instead, so with kInvalidJob as `bogus` only a fork
/// taken mid-run makes the bad start.
class StartsNonWaitingJob final : public Scheduler {
 public:
  StartsNonWaitingJob(JobId trigger, JobId bogus, JobId fork_bogus)
      : trigger_(trigger), bogus_(bogus), fork_bogus_(fork_bogus) {}

  std::string name() const override { return "starts-non-waiting"; }

  void collect_starts(std::vector<JobId>& starts) override {
    const bool fire = std::find(waiting().begin(), waiting().end(), trigger_) != waiting().end();
    starts.insert(starts.end(), waiting().begin(), waiting().end());
    dequeue(starts);
    if (fire && bogus_ != kInvalidJob) starts.push_back(bogus_);
  }

  std::unique_ptr<Scheduler> clone() const override {
    StartsNonWaitingJob forked = *this;
    forked.bogus_ = fork_bogus_;
    return cloned(forked);
  }

 private:
  JobId trigger_;
  JobId bogus_;
  JobId fork_bogus_;
};

/// Four one-node jobs 100 s apart on 8 nodes: each starts on arrival and
/// all four overlap, so a bad start never fails the free-node check first.
Workload four_overlapping_jobs() {
  std::vector<Job> jobs;
  for (Time submit = 0; submit < 400; submit += 100) jobs.push_back(make_job(submit, 1000, 1));
  return make_workload(8, std::move(jobs));
}

/// `run` must throw the engine's std::logic_error for a start of a job that
/// is not waiting.
template <typename Run>
void expect_not_waiting_error(Run run, const std::string& label) {
  try {
    run();
    ADD_FAILURE() << label << ": no exception";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("which is not waiting"), std::string::npos)
        << label << ": " << error.what();
  }
}

/// Simulate four_overlapping_jobs() with the pass that starts `trigger`
/// also starting `bogus`, snapshots on and off: both must throw.
void expect_master_start_throws(JobId trigger, JobId bogus) {
  for (const bool snapshots : {true, false}) {
    EngineConfig config;
    config.record_snapshots = snapshots;
    expect_not_waiting_error(
        [&] {
          simulate_with(four_overlapping_jobs(), config,
                        std::make_unique<StartsNonWaitingJob>(trigger, bogus, kInvalidJob));
        },
        "bogus " + std::to_string(bogus) + " snapshots " + std::to_string(snapshots));
  }
}

// Job 0 starts at its arrival; the pass at job 1's arrival starts it again.
TEST(EngineStartChecks, StartingAStartedJobThrows) { expect_master_start_throws(1, 0); }

// The pass at job 0's arrival also starts job 2, which arrives at 200 s.
TEST(EngineStartChecks, StartingAJobNotYetArrivedThrows) { expect_master_start_throws(0, 2); }

// A fork keeps its own waiting set: forked at job 2's hook, its first pass
// starts job 2 and then job 0 (started at 0 s), or job 3, which never
// arrives in the fork's universe.
TEST(EngineStartChecks, ForkStartingANonWaitingJobThrows) {
  for (const JobId bogus : {JobId{0}, JobId{3}}) {
    SimulationEngine master(four_overlapping_jobs(), EngineConfig{},
                            std::make_unique<StartsNonWaitingJob>(2, kInvalidJob, bogus));
    expect_not_waiting_error(
        [&] {
          master.run_with_arrival_hook([&](JobId id) {
            if (id == 2) master.fork_for_arrival(id)->run_until_started(id);
          });
        },
        "bogus " + std::to_string(bogus));
  }
}

/// Fairshare order of snapshot entries: lower usage, then submit, then id.
bool fairshare_before(const SnapshotWaiting& a, const SnapshotWaiting& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.submit != b.submit) return a.submit < b.submit;
  return a.id < b.id;
}

/// Wraps a policy scheduler and, at each arrival, builds the full snapshot
/// by definition: every waiting job plus the arriving one, each keyed with
/// its owner's ctx().user_usage. Kept are the jobs ahead of the arriving one
/// in fairshare order, sorted, then the job itself: what the engine's
/// recorded prefix must equal. The decorator's own base queue tracks the
/// waiting set (the inner scheduler's is not visible from here).
class FullSnapshotRecorder final : public Scheduler {
 public:
  FullSnapshotRecorder(std::unique_ptr<Scheduler> inner,
                       std::vector<std::vector<SnapshotWaiting>>& expected)
      : inner_(std::move(inner)), expected_(&expected) {}

  std::string name() const override { return inner_->name(); }

  void on_submit(JobId id) override {
    bind();
    std::vector<SnapshotWaiting> full;
    for (const JobId waiting_id : waiting()) full.push_back(entry(waiting_id));
    const SnapshotWaiting arriving = entry(id);
    std::erase_if(full, [&](const SnapshotWaiting& w) { return !fairshare_before(w, arriving); });
    std::sort(full.begin(), full.end(), fairshare_before);
    full.push_back(arriving);
    if (expected_->size() <= static_cast<std::size_t>(id))
      expected_->resize(static_cast<std::size_t>(id) + 1);
    (*expected_)[static_cast<std::size_t>(id)] = std::move(full);
    Scheduler::on_submit(id);
    inner_->on_submit(id);
  }

  void on_complete(JobId id) override {
    bind();
    inner_->on_complete(id);
  }

  void collect_starts(std::vector<JobId>& starts) override {
    bind();
    const std::size_t before = starts.size();
    inner_->collect_starts(starts);
    dequeue(std::span<const JobId>(starts).subspan(before));
  }

  std::optional<Time> next_wakeup() const override {
    bind();
    return inner_->next_wakeup();
  }

 private:
  /// attach() is not virtual: bind the wrapped scheduler on first use.
  void bind() const {
    if (bound_) return;
    inner_->attach(ctx());
    bound_ = true;
  }

  SnapshotWaiting entry(JobId id) const {
    const Job& job = ctx().job(id);
    SnapshotWaiting w;
    w.id = id;
    w.nodes = job.nodes;
    w.runtime = job.runtime;
    w.wcl = job.wcl;
    w.submit = job.submit;
    w.priority = ctx().user_usage(job.user);
    return w;
  }

  std::unique_ptr<Scheduler> inner_;
  std::vector<std::vector<SnapshotWaiting>>* expected_;
  mutable bool bound_ = false;
};

/// Simulate `policy` under `config` through the recorder and check every
/// recorded snapshot's waiting list against the full-snapshot definition,
/// field by field.
SimulationResult expect_prefix_snapshots(const Workload& w, const EngineConfig& config,
                                         const std::string& label) {
  std::vector<std::vector<SnapshotWaiting>> expected;
  SimulationResult r = simulate_with(
      w, config, std::make_unique<FullSnapshotRecorder>(make_scheduler(config.policy), expected));
  EXPECT_EQ(r.snapshots.size(), r.records.size()) << label;
  EXPECT_EQ(expected.size(), r.records.size()) << label;
  for (std::size_t i = 0; i < std::min(expected.size(), r.snapshots.size()); ++i) {
    const std::vector<SnapshotWaiting>& got = r.snapshots[i].waiting;
    const std::vector<SnapshotWaiting>& want = expected[i];
    EXPECT_EQ(r.snapshots[i].id, static_cast<JobId>(i)) << label;
    EXPECT_EQ(got.size(), want.size()) << label << " snapshot " << i;
    if (got.size() != want.size()) return r;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].id, want[k].id) << label << " snapshot " << i << " entry " << k;
      EXPECT_EQ(got[k].nodes, want[k].nodes) << label << " snapshot " << i << " entry " << k;
      EXPECT_EQ(got[k].runtime, want[k].runtime) << label << " snapshot " << i << " entry " << k;
      EXPECT_EQ(got[k].wcl, want[k].wcl) << label << " snapshot " << i << " entry " << k;
      EXPECT_EQ(got[k].submit, want[k].submit) << label << " snapshot " << i << " entry " << k;
      EXPECT_EQ(got[k].priority, want[k].priority)
          << label << " snapshot " << i << " entry " << k;
    }
  }
  return r;
}

constexpr WclEnforcement kWclModes[] = {WclEnforcement::Never, WclEnforcement::KillIfNeeded,
                                        WclEnforcement::Always};

// The recorded prefix equals the full snapshot, filtered and sorted, for the
// nine paper policies (the *72max ones split every 4th job of the stress
// workload into segments) under every WCL mode; and the same run without
// snapshots schedules every record the same.
TEST(EngineSnapshots, PrefixMatchesTheFullSnapshotForEveryPaperPolicy) {
  for (const std::uint64_t seed : {3ull, 19ull}) {
    const Workload w = test::stress_workload(seed, 200, 48, days(4));
    for (const PolicyConfig& policy : all_paper_policies()) {
      for (const WclEnforcement mode : kWclModes) {
        EngineConfig config;
        config.policy = policy;
        config.wcl_enforcement = mode;
        const std::string label = policy.display_name() + " mode " +
                                  std::to_string(static_cast<int>(mode)) + " seed " +
                                  std::to_string(seed);
        const SimulationResult r = expect_prefix_snapshots(w, config, label);
        if (policy.max_runtime != kNoTime) {
          EXPECT_GT(r.records.size(), w.jobs.size()) << policy.display_name();
        }
        // The flag only decides whether snapshots are copied: the schedule
        // without them is the same, record by record.
        config.record_snapshots = false;
        const SimulationResult off = simulate(w, config);
        EXPECT_TRUE(off.snapshots.empty()) << label;
        ASSERT_EQ(off.records.size(), r.records.size()) << label;
        for (std::size_t i = 0; i < r.records.size(); ++i) {
          EXPECT_EQ(off.records[i].start, r.records[i].start) << label << " record " << i;
          EXPECT_EQ(off.records[i].finish, r.records[i].finish) << label << " record " << i;
          EXPECT_EQ(off.records[i].killed_at_wcl, r.records[i].killed_at_wcl)
              << label << " record " << i;
        }
      }
    }
  }
}

// Arrivals and starts on fairshare decay boundaries: the waiting set is
// re-keyed at whichever comes first after the publish epoch moves.
TEST(EngineSnapshots, PrefixMatchesTheFullSnapshotOnDecayBoundaries) {
  std::size_t boundary_arrivals = 0;
  std::size_t boundary_starts = 0;
  for (const std::uint64_t seed : {5ull, 23ull}) {
    const Workload w = test::grid_aligned_workload(seed, 150, 64, hours(1));
    for (const PolicyConfig& policy : all_paper_policies()) {
      for (const WclEnforcement mode : kWclModes) {
        EngineConfig config;
        config.policy = policy;
        config.wcl_enforcement = mode;
        const SimulationResult r = expect_prefix_snapshots(
            w, config,
            policy.display_name() + " mode " + std::to_string(static_cast<int>(mode)) +
                " seed " + std::to_string(seed));
        for (std::size_t i = 0; i < r.records.size(); ++i) {
          const JobRecord& record = r.records[i];
          if (record.job.submit > 0 && record.job.submit % days(1) == 0 &&
              r.snapshots[i].waiting.size() > 1)
            ++boundary_arrivals;
          if (record.start > 0 && record.start % days(1) == 0) ++boundary_starts;
        }
      }
    }
  }
  EXPECT_GT(boundary_arrivals, 0u);
  EXPECT_GT(boundary_starts, 0u);
}

}  // namespace
}  // namespace psched::sim
