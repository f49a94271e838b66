#include "sim/experiment.hpp"

#include <atomic>

#include "obs/clock.hpp"
#include "obs/obs.hpp"
#include "sim/policy_fst.hpp"
#include "util/thread_pool.hpp"

namespace psched::sim {

ExperimentRunner::ExperimentRunner(Workload workload, EngineConfig base,
                                   metrics::FstOptions fst_options)
    : workload_(std::move(workload)), base_(std::move(base)), fst_options_(fst_options) {
  workload_.validate();
}

ExperimentRunner::CacheEntry& ExperimentRunner::entry_for(const PolicyConfig& policy) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<CacheEntry>& slot = cache_[policy.canonical_key()];
  if (!slot) slot = std::make_unique<CacheEntry>();
  return *slot;
}

const ExperimentResult& ExperimentRunner::run(const PolicyConfig& policy, util::StopToken stop,
                                              bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  CacheEntry& entry = entry_for(policy);
  std::unique_lock<std::mutex> lock(entry.mutex);
  if (entry.state == CacheEntry::State::Running) {
    // Join the in-flight computation and share its outcome — including its
    // error (retrying per joiner would simulate a broken config N times).
    obs::count(obs::Counter::kExperimentSingleFlightWaits);
    if (cache_hit != nullptr) *cache_hit = true;
    entry.cv.wait(lock, [&] { return entry.state != CacheEntry::State::Running; });
    if (entry.state == CacheEntry::State::Done) return *entry.result;
    std::rethrow_exception(entry.error);
  }
  if (entry.state == CacheEntry::State::Done) {
    obs::count(obs::Counter::kExperimentCacheHits);
    if (cache_hit != nullptr) *cache_hit = true;
    return *entry.result;
  }

  // Empty, or Failed: become the flight. A Failed entry is evicted here so a
  // retry (e.g. after a cancellation or timeout) can succeed without a
  // process restart; concurrent retriers serialize on the Running state.
  obs::count(obs::Counter::kExperimentCacheMisses);
  entry.state = CacheEntry::State::Running;
  entry.error = nullptr;
  lock.unlock();

  std::unique_ptr<ExperimentResult> result;
  std::exception_ptr error;
  try {
    result = std::make_unique<ExperimentResult>();
    result->policy = policy;
    EngineConfig config = base_;
    config.policy = policy;
    if (stop.valid()) config.stop = stop;
    result->simulation = simulate(workload_, config);
    result->report = metrics::evaluate(result->simulation, fst_options_);
    // The hybrid FST was the snapshots' only reader; a cached result keeps
    // records and report but not the per-arrival snapshots.
    result->simulation.snapshots = std::vector<ArrivalSnapshot>();
    if (fst_options_.policy_knowledge) {
      // The forked-engine FST re-runs the policy itself, so it needs the
      // workload and config — this is the one place with both in hand. The
      // fork drain help-drains safely from inside a sweep lane's pool task.
      PolicyFstOptions policy_options;
      policy_options.fork_batch = fst_options_.fork_batch;
      policy_options.stats = &result->fst_stats;
      result->report.policy_fairness.fair_start =
          policy_no_later_arrivals_fst(workload_, config, policy_options);
      metrics::aggregate_fst(result->simulation, fst_options_,
                             result->report.policy_fairness);
      result->report.has_policy_fairness = true;
    }
  } catch (...) {
    error = std::current_exception();
    result.reset();
  }

  lock.lock();
  if (error) {
    entry.error = error;
    entry.state = CacheEntry::State::Failed;
  } else {
    entry.result = std::move(result);
    entry.state = CacheEntry::State::Done;  // terminal: references stay valid
  }
  entry.cv.notify_all();
  if (entry.error) std::rethrow_exception(entry.error);
  return *entry.result;
}

std::vector<const ExperimentResult*> ExperimentRunner::run_all(
    const std::vector<PolicyConfig>& policies, std::size_t jobs, util::StopToken stop) {
  obs::Span sweep_span("sweep");
  const std::size_t n = policies.size();
  std::vector<const ExperimentResult*> results(n, nullptr);
  util::ThreadPool& pool = util::global_pool();
  if (jobs == 0) jobs = pool.size();
  jobs = std::min(jobs, n);

  // run() can block on an in-flight cache entry, so sweep tasks are compound
  // pool work (never help-drained). That also means a sweep started from
  // inside a pool task could wait on workers that are all occupied by its
  // ancestors — run serially there instead.
  if (jobs <= 1 || util::ThreadPool::in_pool_task()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (stop.stop_requested()) throw SimulationCancelled(stop.reason());
      results[i] = &run(policies[i], stop);
    }
    return results;
  }

  // `jobs` pool tasks pull policy indices from a shared counter, so a slow
  // policy (consdyn) never serializes the rest behind a fixed partition.
  // Each task writes only its own results[i] slots; run() deduplicates
  // concurrent equal configs via the single-flight cache.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto sweep = [&] {
    // Stop pulling new policies once any lane failed or the token tripped:
    // every further simulation would be discarded anyway.
    while (!failed.load(std::memory_order_relaxed) && !stop.stop_requested()) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        results[i] = &run(policies[i], stop);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(jobs);
  for (std::size_t j = 0; j + 1 < jobs; ++j) futures.push_back(pool.submit(sweep));
  std::exception_ptr first_error;
  try {
    sweep();  // the calling thread is the jobs-th lane
  } catch (...) {
    first_error = std::current_exception();
  }
  // Always join the submitted lanes — they reference this frame's state.
  for (auto& future : futures) {
    try {
      future.get();
    } catch (const util::SubmitRejected&) {
      // The lane was never queued (shutdown race or injected fault). The
      // shared counter means the surviving lanes — at minimum this calling
      // thread — still sweep every policy: degraded parallelism, not failure.
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  // A tripped token can leave slots unvisited without any lane throwing;
  // callers dereference every slot, so surface the cancellation instead.
  if (stop.stop_requested())
    for (const ExperimentResult* r : results)
      if (r == nullptr) throw SimulationCancelled(stop.reason());
  return results;
}

std::vector<CellOutcome> ExperimentRunner::run_isolated(
    const std::vector<PolicyConfig>& policies, const IsolatedRunOptions& options) {
  obs::Span sweep_span("sweep");
  const std::size_t n = policies.size();
  std::vector<CellOutcome> outcomes(n);
  util::ThreadPool& pool = util::global_pool();
  std::size_t jobs = options.jobs == 0 ? pool.size() : options.jobs;
  jobs = std::min(jobs, n);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> halt{false};
  std::mutex finish_mutex;
  const auto lane = [&] {
    while (!halt.load(std::memory_order_relaxed) && !options.stop.stop_requested()) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      CellOutcome outcome;
      {
        obs::Span cell_span("cell");
        const std::uint64_t cell_t0 = obs::armed() ? obs::now_us() : 0;
        if (obs::armed()) cell_span.set_arg(policies[i].display_name());
        try {
          // Build the cell's token before on_start so timeouts measure from
          // the instant the cell is picked up, fault hooks included.
          const util::StopToken token =
              options.cell_stop ? options.cell_stop(i) : options.stop;
          if (options.on_start) options.on_start(i, token);
          outcome.result = &run(policies[i], token, &outcome.cache_hit);
        } catch (...) {
          outcome.error = std::current_exception();
          if (!options.keep_going) halt.store(true, std::memory_order_relaxed);
        }
        // Errors are timed too — a timed-out cell's lane occupancy is exactly
        // what a breakdown reader wants to see.
        if (obs::armed())
          outcome.wall_seconds = static_cast<double>(obs::now_us() - cell_t0) * 1e-6;
      }
      outcomes[i] = outcome;  // each lane writes only its own slots
      if (options.on_finish) {
        const std::lock_guard<std::mutex> guard(finish_mutex);
        options.on_finish(i, outcomes[i]);
      }
    }
  };

  // Same compound-task discipline as run_all: serial when nested in the pool.
  if (jobs <= 1 || util::ThreadPool::in_pool_task()) {
    lane();
    return outcomes;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(jobs);
  for (std::size_t j = 0; j + 1 < jobs; ++j) futures.push_back(pool.submit(lane));
  std::exception_ptr first_error;  // only on_finish can throw out of a lane
  try {
    lane();
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& future : futures) {
    try {
      future.get();
    } catch (const util::SubmitRejected&) {
      // Rejected lane: the remaining lanes pull its share of cells from the
      // shared counter, so the sweep completes with less parallelism.
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return outcomes;
}

}  // namespace psched::sim
