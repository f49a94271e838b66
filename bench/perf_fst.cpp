// FST engine throughput, two families:
//
//  * Hybrid FST (the paper's metric): serial vs thread-pool scaling over the
//    per-arrival snapshots of one simulation, plus the preserved seed loop
//    (per-snapshot allocation + sort-per-occupy list scheduler) so the
//    recorded BENCH_fst.json baseline carries the speedup as a measured pair.
//  * Policy-knowledge FST (Sabin et al., "no later arrivals" under the actual
//    policy): the forked-engine one-pass path (BM_PolicyFstForked) vs the
//    preserved naive per-job re-simulation (BM_RefPolicyFstNaive — O(n^2)
//    simulated events, so it runs single iterations at deep trace sizes).
//    The forked/naive gap grows with trace length; summarize_benches.py
//    pairs the two into BENCH_fst.json's speedup_vs_reference.
//
// Parallel cases record pool_threads/jobs so the committed numbers are
// self-describing: on a 1-CPU container parallel ≈ serial by construction.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/reference_profile.hpp"
#include "metrics/fst.hpp"
#include "sim/engine.hpp"
#include "sim/policy_fst.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace {

using namespace psched;

/// jobs = concurrent FST computations in flight (pool size when parallel);
/// pool_threads = the global pool the run could have used.
void record_pool_counters(benchmark::State& state, bool parallel) {
  state.counters["jobs"] =
      parallel ? static_cast<double>(util::global_pool().size()) : 1.0;
  state.counters["pool_threads"] = static_cast<double>(util::global_pool().size());
}

/// The seed per-snapshot FST computation, verbatim: a freshly allocated
/// per-node list scheduler and a freshly allocated order buffer per snapshot.
/// The seed read full snapshots (every waiting job); the engine now records
/// only the jobs ahead of the arrival in fairshare order plus the job itself,
/// so this reference sorts an already-sorted prefix and the pair measures
/// both loops on today's (shorter) snapshots.
Time reference_snapshot_fst(const ArrivalSnapshot& snapshot, NodeCount system_size,
                            metrics::FstKnowledge knowledge) {
  const bool perfect = knowledge == metrics::FstKnowledge::Perfect;
  reference::ReferenceListScheduler list(system_size, snapshot.at);
  for (const SnapshotRunning& r : snapshot.running)
    list.occupy(r.nodes, snapshot.at + std::max<Time>(perfect ? r.remaining : r.est_remaining, 0));

  std::vector<const SnapshotWaiting*> order;
  order.reserve(snapshot.waiting.size());
  for (const SnapshotWaiting& w : snapshot.waiting) order.push_back(&w);
  std::sort(order.begin(), order.end(), [](const SnapshotWaiting* a, const SnapshotWaiting* b) {
    if (a->priority != b->priority) return a->priority < b->priority;
    if (a->submit != b->submit) return a->submit < b->submit;
    return a->id < b->id;
  });

  for (const SnapshotWaiting* w : order) {
    const Time start = list.schedule(w->nodes, perfect ? w->runtime : w->wcl, snapshot.at);
    if (w->id == snapshot.id) return start;
  }
  throw std::logic_error("reference_snapshot_fst: target job missing from its own snapshot");
}

const SimulationResult& fst_input() {
  static const SimulationResult result = [] {
    const Workload trace = workload::generate_small_workload(9, 4000, 1024, days(40));
    sim::EngineConfig config;
    config.policy.kind = PolicyKind::Cplant;
    return sim::simulate(trace, config);
  }();
  return result;
}

void BM_HybridFstSerial(benchmark::State& state) {
  const SimulationResult& input = fst_input();
  metrics::FstOptions options;
  options.parallel = false;
  for (auto _ : state) benchmark::DoNotOptimize(metrics::hybrid_fairshare_fst(input, options));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(input.records.size()));
  record_pool_counters(state, /*parallel=*/false);
}
BENCHMARK(BM_HybridFstSerial)->Unit(benchmark::kMillisecond);

void BM_HybridFstParallel(benchmark::State& state) {
  const SimulationResult& input = fst_input();
  metrics::FstOptions options;
  options.parallel = true;
  for (auto _ : state) benchmark::DoNotOptimize(metrics::hybrid_fairshare_fst(input, options));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(input.records.size()));
  record_pool_counters(state, /*parallel=*/true);
}
BENCHMARK(BM_HybridFstParallel)->Unit(benchmark::kMillisecond);

// --- policy-knowledge FST: forked engine vs naive re-simulation -------------

/// Deep traces for the policy FST pair, one per requested length; arrival
/// density matches fst_input (100 jobs/day on 1024 nodes) so load — and with
/// it the fork-drain tail length — stays comparable across sizes.
const Workload& policy_fst_trace(std::int64_t jobs) {
  static std::map<std::int64_t, Workload> traces;
  auto it = traces.find(jobs);
  if (it == traces.end()) {
    it = traces
             .emplace(jobs, workload::generate_small_workload(
                                9, static_cast<std::size_t>(jobs), 1024,
                                days(std::max<std::int64_t>(1, jobs / 100))))
             .first;
  }
  return it->second;
}

sim::EngineConfig policy_fst_config() {
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;  // the paper's production baseline
  return config;
}

void BM_PolicyFstForked(benchmark::State& state) {
  const Workload& trace = policy_fst_trace(state.range(0));
  const sim::EngineConfig config = policy_fst_config();
  sim::PolicyFstOptions options;
  options.parallel = true;
  sim::PolicyFstStats stats;
  options.stats = &stats;
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::policy_no_later_arrivals_fst(trace, config, options));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(trace.jobs.size()));
  record_pool_counters(state, /*parallel=*/true);
  // Memory-bounding knobs, published into BENCH_fst.json: the fork batch cap
  // the drain ran with and the peak summed fork footprint one batch admitted
  // (deterministic for a given workload/config/batch).
  state.counters["fork_batch"] = static_cast<double>(stats.fork_batch);
  state.counters["peak_batch_bytes"] = static_cast<double>(stats.peak_batch_bytes);
}
BENCHMARK(BM_PolicyFstForked)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

// --- fork construction overhead: shared-view vs record-copy seed path -------

// The O(i) -> O(1) fork claim, measured: one master pass forking at every
// arrival and dropping the fork undrained, so an iteration costs the master
// pass plus n fork constructions. Per-item time staying flat across
// 1k/5k/50k-job traces is the claim — per-fork cost independent of the
// arrival index — because a per-fork term growing with the index would bend
// the per-item time linearly upward with trace length (exactly what the
// record-copy reference below does).
//
// Unlike the policy-FST pair these traces must be SUBCRITICAL (20 jobs/day
// ~ load 0.5 here, vs policy_fst_trace's ~2.4): fork cost is O(live queue),
// so an oversaturated trace grows its queue with trace length and the trace
// itself — not the fork — would bend the curve.
const Workload& fork_overhead_trace(std::int64_t jobs) {
  static std::map<std::int64_t, Workload> traces;
  auto it = traces.find(jobs);
  if (it == traces.end()) {
    it = traces
             .emplace(jobs, workload::generate_small_workload(
                                9, static_cast<std::size_t>(jobs), 1024,
                                days(std::max<std::int64_t>(1, jobs / 20))))
             .first;
  }
  return it->second;
}

void BM_ForkOverheadShared(benchmark::State& state) {
  const Workload& trace = fork_overhead_trace(state.range(0));
  sim::EngineConfig config = policy_fst_config();
  config.record_snapshots = false;
  std::size_t peak_fork_bytes = 0;
  for (auto _ : state) {
    sim::SimulationEngine master(trace, config);
    master.run_with_arrival_hook([&](JobId id) {
      const std::unique_ptr<sim::SimulationEngine> fork = master.fork_for_arrival(id);
      peak_fork_bytes = std::max(peak_fork_bytes, fork->fork_footprint_bytes());
      benchmark::DoNotOptimize(fork.get());
    });
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(trace.jobs.size()));
  // Largest single-fork footprint seen: O(queue depth), NOT O(trace) — it
  // must stay in the same ballpark across the three trace sizes.
  state.counters["peak_fork_bytes"] = static_cast<double>(peak_fork_bytes);
}
BENCHMARK(BM_ForkOverheadShared)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// The seed's removed per-fork term, replayed in isolation: forking at arrival
// i used to copy the master's (i + 1)-record prefix into the fork's record
// table. Same prefix copies over an equal-size table; O(n^2) bytes total, so
// single iterations and no 50k case (cf. BM_RefPolicyFstNaive's budget note).
// summarize_benches.py pairs this with BM_ForkOverheadShared.
void BM_RefForkOverheadRecordCopy(benchmark::State& state) {
  const Workload& trace = fork_overhead_trace(state.range(0));
  std::vector<JobRecord> master(trace.jobs.size());
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) master[i].job = trace.jobs[i];
  for (auto _ : state) {
    for (std::size_t i = 0; i < master.size(); ++i) {
      const std::vector<JobRecord> fork_records(master.begin(),
                                                master.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      benchmark::DoNotOptimize(fork_records.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(trace.jobs.size()));
}
BENCHMARK(BM_RefForkOverheadRecordCopy)
    ->Arg(1000)
    ->Arg(5000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The preserved seed path: one truncated re-simulation per job. Quadratic,
// so it runs exactly one iteration per size (the 5k case alone is minutes of
// wall clock on a slow host — see tools/run_benches.sh's budget note).
void BM_RefPolicyFstNaive(benchmark::State& state) {
  const Workload& trace = policy_fst_trace(state.range(0));
  const sim::EngineConfig config = policy_fst_config();
  sim::PolicyFstOptions options;
  options.parallel = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::policy_no_later_arrivals_fst_naive(trace, config, options));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(trace.jobs.size()));
  record_pool_counters(state, /*parallel=*/true);
}
BENCHMARK(BM_RefPolicyFstNaive)->Arg(1000)->Arg(5000)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_RefHybridFstSerial(benchmark::State& state) {
  const SimulationResult& input = fst_input();
  std::vector<Time> fair_start(input.records.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < input.snapshots.size(); ++i)
      fair_start[i] = reference_snapshot_fst(input.snapshots[i], input.system_size,
                                             metrics::FstKnowledge::Estimates);
    benchmark::DoNotOptimize(fair_start.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(input.records.size()));
}
BENCHMARK(BM_RefHybridFstSerial)->Unit(benchmark::kMillisecond);

void BM_ConsPFst(benchmark::State& state) {
  const SimulationResult& input = fst_input();
  for (auto _ : state) benchmark::DoNotOptimize(metrics::cons_p_fst(input));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(input.records.size()));
}
BENCHMARK(BM_ConsPFst)->Unit(benchmark::kMillisecond);

}  // namespace
