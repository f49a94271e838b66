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

}  // namespace
}  // namespace psched::sim
