// Forkable-engine coverage: the forked policy-knowledge FST must be
// byte-identical to the preserved naive re-simulation (the behavioral
// oracle) for every policy, every WCL enforcement mode and several seeds;
// serial and parallel fork draining must agree; and the fork API must
// enforce its preconditions. The PolicyFstFork suite is part of
// tools/run_tsan.sh's concurrency set (parallel draining races would
// surface here).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/policy_fst.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace psched::sim {
namespace {

/// The nine named policies with the maximum-runtime limit cleared: the
/// policy FST is defined only for unsegmented runs, so the *max variants are
/// exercised with the same base scheduler minus the limit. This still covers
/// every scheduler class (cplant x3 knob combinations, static conservative,
/// and depth via consdyn) — clone() fidelity is what the equality pins.
std::vector<PolicyConfig> nine_policies_nomax() {
  std::vector<PolicyConfig> policies = all_paper_policies();
  for (PolicyConfig& policy : policies) {
    policy.name = policy.display_name();  // keep the paper name for messages
    policy.max_runtime = kNoTime;
  }
  return policies;
}

/// Every 3rd job underestimates its runtime (wcl = runtime / 2), so
/// overrun-handling — the growing assumed-end horizon, conservative's
/// forced full replans, WCL kills when enforced — is live in every run.
Workload with_underestimates(const Workload& workload) {
  WorkloadBuilder edit(workload);
  for (std::size_t i = 0; i < edit.jobs.size(); i += 3) {
    Job& job = edit.jobs[i];
    job.wcl = std::max<Time>(1, job.runtime / 2);
  }
  Workload out = edit.build();
  out.validate();
  return out;
}

/// Every submit, runtime and WCL is a multiple of 300 s (as is the one-day
/// fairshare period), and about half the jobs share their submit second
/// with the previous one, so completions, WCL checks and decay boundaries
/// land exactly on arrivals. A fork taken at the next job's arrival hook is
/// then often mid-instant: that instant's events are consumed and its
/// scheduling pass is still owed. Every 3rd job underestimates its runtime.
Workload grid_aligned_workload(std::uint64_t seed, std::size_t jobs = 90,
                               NodeCount system_size = 64) {
  constexpr Time kGrid = 300;
  util::Rng rng(seed);
  std::vector<Job> out;
  Time submit = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    if (i > 0 && !rng.flip(0.5)) submit += kGrid * rng.uniform_int(1, 6);
    const Time runtime = kGrid * rng.uniform_int(1, 36);
    const Time wcl = i % 3 == 0 ? std::max(kGrid, runtime / (2 * kGrid) * kGrid)
                                : runtime + kGrid * rng.uniform_int(0, 4);
    const auto nodes = static_cast<NodeCount>(rng.uniform_int(1, system_size / 2));
    out.push_back(test::make_job(submit, runtime, nodes, static_cast<UserId>(i % 5), wcl));
  }
  return test::make_workload(system_size, std::move(out));
}

TEST(PolicyFstFork, ByteIdenticalToNaiveForAllNinePolicies) {
  const PolicyFstOptions serial{.parallel = false};
  for (const std::uint64_t seed : {3ull, 17ull}) {
    const Workload w = workload::generate_small_workload(seed, 70, 64, days(2));
    for (const PolicyConfig& policy : nine_policies_nomax()) {
      EngineConfig config;
      config.policy = policy;
      const std::vector<Time> naive = policy_no_later_arrivals_fst_naive(w, config, serial);
      const std::vector<Time> forked = policy_no_later_arrivals_fst(w, config, serial);
      EXPECT_EQ(naive, forked) << policy.display_name() << " seed " << seed;
    }
  }
}

TEST(PolicyFstFork, ByteIdenticalAcrossWclEnforcementModes) {
  const PolicyFstOptions serial{.parallel = false};
  const Workload w =
      with_underestimates(workload::generate_small_workload(11, 80, 64, days(2)));
  for (const PolicyKind kind :
       {PolicyKind::Cplant, PolicyKind::Easy, PolicyKind::Conservative}) {
    for (const WclEnforcement mode :
         {WclEnforcement::Never, WclEnforcement::KillIfNeeded, WclEnforcement::Always}) {
      EngineConfig config;
      config.policy.kind = kind;
      config.wcl_enforcement = mode;
      const std::vector<Time> naive = policy_no_later_arrivals_fst_naive(w, config, serial);
      const std::vector<Time> forked = policy_no_later_arrivals_fst(w, config, serial);
      EXPECT_EQ(naive, forked) << "kind " << static_cast<int>(kind) << " mode "
                               << static_cast<int>(mode);
    }
  }
}

// Forks are taken at the next job's arrival hook, often mid-instant on this
// grid: the fork must finish the master's instant (remaining WCL checks and
// timers, then the owed scheduling pass) before it advances time.
TEST(PolicyFstFork, ByteIdenticalToNaiveOnGridAlignedArrivals) {
  const PolicyFstOptions serial{.parallel = false};
  for (const std::uint64_t seed : {5ull, 23ull}) {
    const Workload w = grid_aligned_workload(seed);
    for (const PolicyConfig& policy : nine_policies_nomax()) {
      for (const WclEnforcement mode :
           {WclEnforcement::Never, WclEnforcement::KillIfNeeded, WclEnforcement::Always}) {
        EngineConfig config;
        config.policy = policy;
        config.wcl_enforcement = mode;
        EXPECT_EQ(policy_no_later_arrivals_fst_naive(w, config, serial),
                  policy_no_later_arrivals_fst(w, config, serial))
            << policy.display_name() << " mode " << static_cast<int>(mode) << " seed " << seed;
      }
    }
  }
}

// One answer per job: a job that started before the next arrival is
// answered by its master start, every other one by a drained fork, and the
// serial and parallel drains count the same.
TEST(PolicyFstFork, StatsCountOneDrainPerJobWaitingAtTheNextArrival) {
  const Workload generated =
      with_underestimates(workload::generate_small_workload(29, 300, 128, days(4)));
  for (const Workload& w : {generated, grid_aligned_workload(5)}) {
    const std::size_t n = w.jobs.size();
    for (const PolicyKind kind : {PolicyKind::Cplant, PolicyKind::ConservativeDynamic}) {
      EngineConfig config;
      config.policy.kind = kind;
      config.wcl_enforcement = WclEnforcement::KillIfNeeded;
      const SimulationResult master = simulate(w, config);
      std::size_t waiting_at_next_arrival = 0;
      for (std::size_t i = 0; i + 1 < n; ++i)
        if (master.records[i].start >= w.jobs[i + 1].submit) ++waiting_at_next_arrival;

      PolicyFstStats serial;
      PolicyFstStats parallel;
      policy_no_later_arrivals_fst(w, config, {.parallel = false, .stats = &serial});
      policy_no_later_arrivals_fst(w, config, {.parallel = true, .stats = &parallel});
      for (const PolicyFstStats& stats : {serial, parallel}) {
        EXPECT_EQ(stats.forks, n) << "kind " << static_cast<int>(kind);
        EXPECT_EQ(stats.drained + stats.resolved_from_master, n);
        EXPECT_EQ(stats.drained, waiting_at_next_arrival) << "kind " << static_cast<int>(kind);
      }
      EXPECT_GT(waiting_at_next_arrival, 0u) << "kind " << static_cast<int>(kind);
      EXPECT_EQ(serial.drained, parallel.drained);
      EXPECT_EQ(serial.resolved_from_master, parallel.resolved_from_master);
    }
  }
}

// Forks are independent, so draining them on the pool must be untraceably
// different from draining them inline (one integer write per fork, each to
// its own slot). Large enough to roll over several fork batches.
TEST(PolicyFstFork, ParallelDrainMatchesSerialDrain) {
  const Workload w =
      with_underestimates(workload::generate_small_workload(29, 300, 128, days(4)));
  for (const PolicyKind kind : {PolicyKind::Cplant, PolicyKind::ConservativeDynamic}) {
    EngineConfig config;
    config.policy.kind = kind;
    config.wcl_enforcement = WclEnforcement::KillIfNeeded;
    EXPECT_EQ(policy_no_later_arrivals_fst(w, config, {.parallel = false}),
              policy_no_later_arrivals_fst(w, config, {.parallel = true}))
        << "kind " << static_cast<int>(kind);
  }
}

// The max_runtime precondition applies to the oracle exactly like the forked
// path (same message, both options paths).
TEST(PolicyFstFork, NaivePreconditionThrowsUnchanged) {
  const Workload w = workload::generate_small_workload(5, 20, 16, days(1));
  EngineConfig config;
  config.policy.max_runtime = hours(72);
  EXPECT_THROW(policy_no_later_arrivals_fst_naive(w, config), std::invalid_argument);
  EXPECT_THROW(policy_no_later_arrivals_fst_naive(w, config, {.parallel = false}),
               std::invalid_argument);
  try {
    policy_no_later_arrivals_fst_naive(w, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("max_runtime"), std::string::npos);
  }
}

/// Minimal greedy scheduler that does NOT override clone(): forking an
/// engine that runs it must fail loudly, not silently share state.
class NoCloneGreedy final : public Scheduler {
 public:
  std::string name() const override { return "no-clone-greedy"; }
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

TEST(PolicyFstFork, ForkRequiresCloneCapableScheduler) {
  const Workload w = workload::generate_small_workload(7, 10, 16, days(1));
  EngineConfig config;
  SimulationEngine engine(w, config, std::make_unique<NoCloneGreedy>());
  EXPECT_THROW(
      engine.run_with_arrival_hook([&](JobId id) { engine.fork_for_arrival(id); }),
      std::logic_error);
}

TEST(PolicyFstFork, ForkRejectsRuntimeLimitedEngines) {
  const Workload w = workload::generate_small_workload(7, 10, 16, days(1));
  EngineConfig config;
  config.policy.max_runtime = hours(1);
  SimulationEngine engine(w, config);
  EXPECT_THROW(
      engine.run_with_arrival_hook([&](JobId id) { engine.fork_for_arrival(id); }),
      std::logic_error);
}

// Forked engines trim their per-record bookkeeping to the fork's universe
// and still produce the exact start the naive truncated run produces — the
// state-equivalence argument checked at the engine level, one fork at a
// time, including a mid-run fork whose target starts much later.
TEST(PolicyFstFork, SingleForkMatchesTruncatedSimulation) {
  const Workload w = workload::generate_small_workload(13, 40, 32, days(1));
  EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;
  config.record_snapshots = false;

  for (const JobId target : {JobId{0}, JobId{17}, JobId{39}}) {
    const Workload truncated = w.truncate(static_cast<std::size_t>(target) + 1);
    const SimulationResult oracle = simulate(truncated, config);

    SimulationEngine master(w, config);
    Time forked_start = kNoTime;
    master.run_with_arrival_hook([&](JobId id) {
      if (id == target) forked_start = master.fork_for_arrival(id)->run_until_started(id);
    });
    EXPECT_EQ(forked_start, oracle.records.at(static_cast<std::size_t>(target)).start)
        << "target " << target;
  }
}

// The policy FST's form: job i forked at the hook of arrival i + 1, where
// the fork may be mid-instant and job i may already have started. Every
// fork must still reproduce the truncated run's start of its target.
TEST(PolicyFstFork, SingleForkAtNextArrivalMatchesTruncatedSimulation) {
  const Workload w = grid_aligned_workload(41, 60, 48);
  for (const PolicyKind kind : {PolicyKind::Cplant, PolicyKind::Conservative}) {
    EngineConfig config;
    config.policy.kind = kind;
    config.wcl_enforcement = WclEnforcement::KillIfNeeded;
    config.record_snapshots = false;

    SimulationEngine master(w, config);
    std::vector<Time> forked(w.jobs.size(), kNoTime);
    const SimulationResult full = master.run_with_arrival_hook([&](JobId next) {
      if (next > 0) forked[next - 1] = master.fork_for_arrival(next - 1)->run_until_started(next - 1);
    });
    forked.back() = full.records.back().start;
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
      EXPECT_EQ(forked[i], simulate(w.truncate(i + 1), config).records.at(i).start)
          << "kind " << static_cast<int>(kind) << " target " << i;
  }
}

// The truncated-universe argument holds only while the target's own or its
// successor's arrival is the next pending event.
TEST(PolicyFstFork, ForkTwoArrivalsLateThrows) {
  const Workload w = workload::generate_small_workload(7, 10, 16, days(1));
  EngineConfig config;
  SimulationEngine master(w, config);
  master.run_with_arrival_hook([&](JobId next) {
    EXPECT_NO_THROW(master.fork_for_arrival(next));
    if (next >= 1) {
      EXPECT_NO_THROW(master.fork_for_arrival(next - 1));
    }
    if (next >= 2) {
      EXPECT_THROW(master.fork_for_arrival(next - 2), std::logic_error);
    }
  });
}

}  // namespace
}  // namespace psched::sim
