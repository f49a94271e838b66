#pragma once
// Shared fixtures/builders for the test suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/job.hpp"
#include "core/policy.hpp"
#include "metrics/weekly.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace psched::test {

/// Build a job with the common fields; wcl defaults to runtime (perfect
/// estimate) when left at 0.
inline Job make_job(Time submit, Time runtime, NodeCount nodes, UserId user = 0, Time wcl = 0) {
  Job job;
  job.submit = submit;
  job.runtime = runtime;
  job.wcl = wcl > 0 ? wcl : runtime;
  job.nodes = nodes;
  job.user = user;
  job.group = user % 4;
  return job;
}

/// Normalized workload from a job list.
inline Workload make_workload(NodeCount system_size, std::vector<Job> jobs) {
  WorkloadBuilder builder(std::move(jobs), system_size);
  builder.normalize();
  Workload w = builder.build();
  w.validate();
  return w;
}

/// A generated workload with every over-run path live: every 3rd job
/// underestimates its runtime (WCL enforcement and the over-run horizon
/// engage) and every 4th job runs 4x longer (a 72 h maximum-runtime limit
/// splits it).
inline Workload stress_workload(std::uint64_t seed, std::size_t jobs = 300,
                                NodeCount system_size = 48, Time span = days(4)) {
  WorkloadBuilder edit(workload::generate_small_workload(seed, jobs, system_size, span));
  for (std::size_t i = 0; i < edit.jobs.size(); ++i) {
    Job& job = edit.jobs[i];
    if (i % 4 == 0) {
      job.runtime *= 4;
      job.wcl *= 4;
    }
    if (i % 3 == 0) job.wcl = std::max<Time>(1, job.runtime / 2);
  }
  Workload out = edit.build();
  out.validate();
  return out;
}

/// Every submit, runtime and WCL is a multiple of `grid` (300 s by default;
/// the one-day fairshare period is a multiple of it), and about half the
/// jobs share their submit second with the previous one, so completions,
/// WCL checks and decay boundaries land exactly on arrivals. A fork taken at
/// the next job's arrival hook is then often mid-instant: that instant's
/// events are consumed and its scheduling pass is still owed. Every 3rd job
/// underestimates its runtime.
inline Workload grid_aligned_workload(std::uint64_t seed, std::size_t jobs = 90,
                                      NodeCount system_size = 64, Time grid = 300) {
  util::Rng rng(seed);
  std::vector<Job> out;
  Time submit = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    if (i > 0 && !rng.flip(0.5)) submit += grid * rng.uniform_int(1, 6);
    const Time runtime = grid * rng.uniform_int(1, 36);
    const Time wcl = i % 3 == 0 ? std::max(grid, runtime / (2 * grid) * grid)
                                : runtime + grid * rng.uniform_int(0, 4);
    const auto nodes = static_cast<NodeCount>(rng.uniform_int(1, system_size / 2));
    out.push_back(make_job(submit, runtime, nodes, static_cast<UserId>(i % 5), wcl));
  }
  return make_workload(system_size, std::move(out));
}

/// Run one policy on a workload with default engine settings.
inline SimulationResult run_policy(const Workload& workload, PolicyKind kind,
                                   PriorityKind priority = PriorityKind::Fcfs) {
  sim::EngineConfig config;
  config.policy.kind = kind;
  config.policy.priority = priority;
  return sim::simulate(workload, config);
}

/// Figure 3's weekly offered load of `workload`, the way the figure gets it:
/// simulate the trace (any policy; strict FCFS is the cheapest), then
/// metrics::weekly_series. The series runs to the week of the last finish.
inline std::vector<double> weekly_offered_load(const Workload& workload) {
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::Fcfs;
  config.policy.priority = PriorityKind::Fcfs;
  config.record_snapshots = false;
  return metrics::weekly_series(sim::simulate(workload, config)).offered_load;
}

/// Field-by-field workload equality — the byte-identity the streaming SWF
/// reader promises against the eager one.
inline void expect_same_jobs(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(a.system_size, b.system_size);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id) << "job " << i;
    EXPECT_EQ(a.jobs[i].submit, b.jobs[i].submit) << "job " << i;
    EXPECT_EQ(a.jobs[i].runtime, b.jobs[i].runtime) << "job " << i;
    EXPECT_EQ(a.jobs[i].wcl, b.jobs[i].wcl) << "job " << i;
    EXPECT_EQ(a.jobs[i].nodes, b.jobs[i].nodes) << "job " << i;
    EXPECT_EQ(a.jobs[i].user, b.jobs[i].user) << "job " << i;
    EXPECT_EQ(a.jobs[i].group, b.jobs[i].group) << "job " << i;
  }
}

/// No record may over-allocate the machine at any instant.
inline void expect_no_overallocation(const SimulationResult& result) {
  // Sweep start/finish events.
  std::vector<std::pair<Time, NodeCount>> deltas;
  for (const JobRecord& r : result.records) {
    deltas.push_back({r.start, r.job.nodes});
    deltas.push_back({r.finish, static_cast<NodeCount>(-r.job.nodes)});
  }
  std::sort(deltas.begin(), deltas.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;  // releases before allocations at equal time
  });
  NodeCount busy = 0;
  for (const auto& [at, delta] : deltas) {
    busy += delta;
    ASSERT_LE(busy, result.system_size) << "over-allocation at t=" << at;
    ASSERT_GE(busy, 0);
  }
}

/// Every record completed, started no earlier than submitted, ran its runtime.
inline void expect_complete_and_causal(const SimulationResult& result) {
  for (const JobRecord& r : result.records) {
    ASSERT_TRUE(r.completed()) << "record " << r.job.id;
    EXPECT_GE(r.start, r.job.submit) << "record " << r.job.id;
    if (!r.killed_at_wcl) {
      EXPECT_EQ(r.finish - r.start, r.job.runtime) << "record " << r.job.id;
    }
  }
}

}  // namespace psched::test
