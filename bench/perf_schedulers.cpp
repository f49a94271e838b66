// End-to-end scheduler throughput: simulated jobs per second for each policy
// kind on a common random workload, plus the deep-queue scenario family —
// burst arrivals that hold thousands of simultaneous reservations.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <map>

#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using namespace psched;

const Workload& bench_trace(std::size_t jobs) {
  static std::map<std::size_t, Workload> cache;
  auto it = cache.find(jobs);
  if (it == cache.end())
    it = cache.emplace(jobs, workload::generate_small_workload(5, jobs, 512, days(30))).first;
  return it->second;
}

void run_policy_bench(benchmark::State& state, PolicyKind kind) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const Workload& trace = bench_trace(jobs);
  for (auto _ : state) {
    sim::EngineConfig config;
    config.policy.kind = kind;
    config.policy.priority = PriorityKind::Fairshare;
    config.record_snapshots = false;
    benchmark::DoNotOptimize(sim::simulate(trace, config).records.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(jobs));
}

void BM_SimFcfs(benchmark::State& state) { run_policy_bench(state, PolicyKind::Fcfs); }
void BM_SimEasy(benchmark::State& state) { run_policy_bench(state, PolicyKind::Easy); }
void BM_SimCplant(benchmark::State& state) { run_policy_bench(state, PolicyKind::Cplant); }
void BM_SimConservative(benchmark::State& state) {
  run_policy_bench(state, PolicyKind::Conservative);
}
void BM_SimConservativeDynamic(benchmark::State& state) {
  run_policy_bench(state, PolicyKind::ConservativeDynamic);
}

BENCHMARK(BM_SimFcfs)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimEasy)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimCplant)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimConservative)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimConservativeDynamic)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

// --- deep-queue scenario family ----------------------------------------------
//
// Burst arrivals on a small machine: every job lands within the first hour,
// so a conservative plan holds (jobs) simultaneous reservations and every
// completion triggers a heavy compression/replan pass over the whole queue.
// No BENCHMARK.json workload has this shape (its deepest plans hold a few
// hundred breakpoints); the family tracks the profile's linear scan on
// plans of thousands.

const Workload& deep_burst_trace(std::size_t jobs) {
  static std::map<std::size_t, Workload> cache;
  auto it = cache.find(jobs);
  if (it == cache.end()) {
    util::Rng rng(7777);
    WorkloadBuilder b;
    b.system_size = 128;
    for (std::size_t i = 0; i < jobs; ++i) {
      Job job;
      job.id = static_cast<JobId>(i);
      job.user = static_cast<UserId>(rng.uniform_int(0, 15));
      job.submit = rng.uniform_int(0, 3600);
      // Widths uniform over [1, 96] of the 128-node machine: wide jobs are
      // deliberately over-represented vs real traces so every replan has to
      // re-seat work across large reservations (the profile-stressing case).
      job.nodes = static_cast<NodeCount>(rng.uniform_int(1, 96));
      job.runtime = rng.uniform_int(120, 4000);
      job.wcl = job.runtime + rng.uniform_int(0, 2000);
      b.jobs.push_back(job);
    }
    b.normalize();
    Workload w = b.build();
    w.validate();
    it = cache.emplace(jobs, std::move(w)).first;
  }
  return it->second;
}

void run_deep_queue_bench(benchmark::State& state, PolicyKind kind) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const Workload& trace = deep_burst_trace(jobs);
  for (auto _ : state) {
    sim::EngineConfig config;
    config.policy.kind = kind;
    config.policy.priority = PriorityKind::Fairshare;
    config.record_snapshots = false;
    benchmark::DoNotOptimize(sim::simulate(trace, config).records.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(jobs));
}

void BM_SimConservativeDeepQueue(benchmark::State& state) {
  run_deep_queue_bench(state, PolicyKind::Conservative);
}
void BM_SimConservativeDynamicDeepQueue(benchmark::State& state) {
  run_deep_queue_bench(state, PolicyKind::ConservativeDynamic);
}
void BM_SimCplantDeepQueue(benchmark::State& state) {
  run_deep_queue_bench(state, PolicyKind::Cplant);
}

// Static conservative at 10000 is omitted: a single iteration runs for many
// minutes. The dynamic case carries the 10k+ point end to end, and
// perf_profile's BM_ProfilePack/16384 carries it at the profile level.
BENCHMARK(BM_SimConservativeDeepQueue)->Arg(2000)->Arg(4000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimConservativeDynamicDeepQueue)
    ->Arg(2000)
    ->Arg(4000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimCplantDeepQueue)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace
