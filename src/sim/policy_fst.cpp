#include "sim/policy_fst.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace psched::sim {

namespace {

void require_no_max_runtime(const EngineConfig& config) {
  if (config.policy.max_runtime != kNoTime)
    throw std::invalid_argument(
        "policy_no_later_arrivals_fst: requires config.policy.max_runtime == kNoTime — "
        "a job split into runtime-limit segments has no single start");
}

}  // namespace

std::vector<Time> policy_no_later_arrivals_fst(const Workload& workload,
                                               const EngineConfig& config,
                                               const PolicyFstOptions& options) {
  require_no_max_runtime(config);

  const std::size_t n = workload.jobs.size();
  std::vector<Time> fair_start(n, kNoTime);
  if (n == 0) return fair_start;

  EngineConfig run = config;
  run.record_snapshots = false;

  // One full pass: the master engine simulates the whole workload. At the
  // hook of arrival i+1 nothing of jobs > i has touched it, so a start of
  // job i recorded by then is already i's fair start; only a job still
  // waiting there is forked (that fork sees no later arrivals) and drained
  // until it starts. The last job's fair start is its master start. Forks
  // are independent (they share only the read-only workload), so batches of
  // them drain concurrently as leaf tasks — safe to help-drain from inside
  // another pool task, and byte-identical to a serial drain (one integer
  // write per fork, each to its own slot). The batch is bounded to keep
  // peak memory at O(batch * engine) instead of accumulating the forks.
  std::vector<std::pair<JobId, std::unique_ptr<SimulationEngine>>> batch;
  const std::size_t batch_cap =
      options.fork_batch > 0
          ? options.fork_batch
          : std::max<std::size_t>(options.parallel ? 4 * util::global_pool().size() : 0, 16);
  batch.reserve(batch_cap);
  // Stats are kept unconditionally (integer bookkeeping is free); only the
  // per-batch footprint walk — a fork_footprint_bytes() sweep — stays gated
  // on someone actually consuming it (the caller's out-param or armed obs).
  PolicyFstStats local_stats;
  PolicyFstStats* stats = options.stats != nullptr ? options.stats : &local_stats;
  *stats = PolicyFstStats{};
  stats->forks = n;
  stats->fork_batch = batch_cap;
  const bool want_batch_bytes = options.stats != nullptr || obs::armed();

  const auto drain_batch = [&] {
    if (batch.empty()) return;
    obs::Span batch_span("fork-batch");
    if (obs::armed()) batch_span.set_arg(std::to_string(batch.size()) + " forks");
    if (want_batch_bytes) {
      // Peak engine-state memory this batch admitted: every fork in it is
      // still alive here, before any drain frees one.
      std::size_t batch_bytes = 0;
      for (const auto& entry : batch) batch_bytes += entry.second->fork_footprint_bytes();
      stats->peak_batch_bytes = std::max(stats->peak_batch_bytes, batch_bytes);
    }
    const auto drain_one = [&](std::size_t k) {
      auto& [target, fork] = batch[k];
      fair_start[static_cast<std::size_t>(target)] = fork->run_until_started(target);
      fork.reset();  // free the fork as soon as it is drained
    };
    if (options.parallel)
      util::parallel_for(batch.size(), drain_one);
    else
      for (std::size_t k = 0; k < batch.size(); ++k) drain_one(k);
    stats->drained += batch.size();
    batch.clear();
  };

  SimulationEngine master(workload, run);
  const SimulationResult result = master.run_with_arrival_hook([&](JobId next) {
    if (next == 0) return;
    const JobId target = next - 1;
    const Time start = master.recorded_start(target);
    if (start != kNoTime) {
      fair_start[static_cast<std::size_t>(target)] = start;
      ++stats->resolved_from_master;
      return;
    }
    batch.emplace_back(target, master.fork_for_arrival(target));
    if (batch.size() >= batch_cap) drain_batch();
  });
  drain_batch();
  fair_start[n - 1] = result.records[n - 1].start;
  ++stats->resolved_from_master;
  obs::count(obs::Counter::kFstForks, stats->forks);
  obs::count(obs::Counter::kFstForksDrained, stats->drained);
  obs::count(obs::Counter::kFstResolvedFromMaster, stats->resolved_from_master);
  obs::record_max(obs::Counter::kFstPeakBatchBytes, stats->peak_batch_bytes);
  return fair_start;
}

std::vector<Time> policy_no_later_arrivals_fst_naive(const Workload& workload,
                                                     const EngineConfig& config,
                                                     const PolicyFstOptions& options) {
  require_no_max_runtime(config);

  const std::size_t n = workload.jobs.size();
  std::vector<Time> fair_start(n, kNoTime);

  const auto compute_one = [&](std::size_t i) {
    // A truncation is a view over the shared job table — ids already match
    // indices and the target is the last job.
    const Workload truncated = workload.truncate(i + 1);
    EngineConfig run = config;
    run.record_snapshots = false;
    const SimulationResult result = simulate(truncated, run);
    fair_start[i] = result.records.at(i).start;
  };

  if (options.parallel)
    util::parallel_for(n, compute_one);
  else
    for (std::size_t i = 0; i < n; ++i) compute_one(i);
  return fair_start;
}

}  // namespace psched::sim
