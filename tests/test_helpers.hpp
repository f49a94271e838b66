#pragma once
// Shared fixtures/builders for the test suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/job.hpp"
#include "core/policy.hpp"
#include "sim/engine.hpp"
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

/// Run one policy on a workload with default engine settings.
inline SimulationResult run_policy(const Workload& workload, PolicyKind kind,
                                   PriorityKind priority = PriorityKind::Fcfs) {
  sim::EngineConfig config;
  config.policy.kind = kind;
  config.policy.priority = priority;
  return sim::simulate(workload, config);
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
