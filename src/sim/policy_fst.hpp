#pragma once
// The earlier Sabin/Sadayappan FST variant discussed in paper section 4: a
// job's fair start time is its start in a re-run of the *actual scheduling
// policy* on a universe where no later jobs ever arrive. Directly measures
// whether later arrivals hurt the job.
//
// Computed with the forkable engine: ONE full simulation. Until job i+1
// arrives its state is identical whether or not jobs i+1..n exist (see
// SimulationEngine::fork_for_arrival), so a job that started by then has
// its fair start; only a job still waiting is forked there and drained with
// no further arrivals until it starts. Cost is one pass plus those fork
// tails instead of the seed's n truncated re-simulations (O(n^2)
// simulated events); bench/perf_fst.cpp measures the pair
// (BM_PolicyFstForked vs BM_RefPolicyFstNaive) and the win grows with trace
// length. The naive re-simulation is preserved below as the behavioral
// oracle — tests pin the two byte-identical for every policy.

#include <cstddef>
#include <vector>

#include "sim/engine.hpp"

namespace psched::sim {

/// Observability counters filled by policy_no_later_arrivals_fst when the
/// caller wires PolicyFstOptions::stats. Deterministic for a given
/// (workload, config, options) triple.
struct PolicyFstStats {
  std::size_t forks = 0;                  ///< jobs answered (== job count)
  std::size_t drained = 0;                ///< jobs answered by building and draining a fork
  std::size_t resolved_from_master = 0;   ///< jobs answered by their master start, no fork
  std::size_t fork_batch = 0;             ///< the batch cap actually used
  /// Max over drain batches of the summed fork footprints
  /// (SimulationEngine::fork_footprint_bytes) alive at drain time — the
  /// peak engine-state memory the bounded batching admits.
  std::size_t peak_batch_bytes = 0;
};

struct PolicyFstOptions {
  /// Drain forks concurrently on the global pool (results are byte-identical
  /// to a serial drain: each fork is independent and writes one integer to
  /// its own result slot).
  bool parallel = true;
  /// Forks accumulated before a drain. 0 = automatic (the historical
  /// behavior: max(4 * pool size, 16) when parallel, 16 serial). Peak memory
  /// scales with this times the per-fork O(queue) footprint; latency on wide
  /// pools wants it >= the pool size.
  std::size_t fork_batch = 0;
  /// Optional out-param for drain observability; untouched when null.
  PolicyFstStats* stats = nullptr;
};

/// fair_start[i] = start of workload.jobs[i] when the simulation is re-run
/// with every job submitted after jobs[i] removed (same-submit ties with a
/// lower id are kept). Requires config.policy.max_runtime == kNoTime, since
/// a job split into runtime-limit segments has no single start.
std::vector<Time> policy_no_later_arrivals_fst(const Workload& workload,
                                               const EngineConfig& config,
                                               const PolicyFstOptions& options = {});

/// The seed implementation, preserved verbatim as the behavioral oracle: one
/// truncated-workload re-simulation per job (O(n^2) simulated events
/// overall). Reference for tests and BM_RefPolicyFstNaive; use
/// policy_no_later_arrivals_fst everywhere else.
std::vector<Time> policy_no_later_arrivals_fst_naive(const Workload& workload,
                                                     const EngineConfig& config,
                                                     const PolicyFstOptions& options = {});

}  // namespace psched::sim
