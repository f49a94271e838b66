#pragma once
// Experiment runner: one workload, many policies, cached results.
// psched_run, every campaign group and the examples funnel through this so
// repeated policies within a process simulate exactly once.
//
// The cache is keyed on PolicyConfig::canonical_key() (covers every field —
// display_name collides for configs differing only in heavy_user_factor) and
// is single-flight: concurrent callers asking for the same policy block until
// the one in-flight simulation finishes, then share its result. Error entries
// are evictable: callers that joined a flight share its error, but a *later*
// call retries (re-entering single-flight), so a transient failure — a
// cancelled or timed-out cell — does not poison the config for the rest of
// the process (what --resume / --keep-going re-runs rely on).

#include <condition_variable>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "metrics/report.hpp"
#include "sim/engine.hpp"
#include "sim/policy_fst.hpp"
#include "util/stop_token.hpp"

namespace psched::sim {

struct ExperimentResult {
  PolicyConfig policy;
  SimulationResult simulation;
  metrics::PolicyReport report;
  /// Drain observability from the policy-knowledge FST pass (zeros when the
  /// metric set never selected it). Deterministic per (workload, config).
  PolicyFstStats fst_stats;
};

/// The per-policy outcome of a fault-isolated sweep (run_isolated): exactly
/// one of `result`/`error` is set for an attempted cell; both are null when
/// the sweep stopped before the cell was ever pulled.
struct CellOutcome {
  const ExperimentResult* result = nullptr;
  std::exception_ptr error;
  /// Cache provenance + lane wall time, for campaign breakdowns. The result
  /// bytes never depend on either: wall_seconds is only measured while obs
  /// tracing is armed (and stays 0.0 otherwise), cache_hit only feeds the
  /// summary "breakdown" block an armed run emits.
  bool cache_hit = false;
  double wall_seconds = 0.0;
  bool attempted() const { return result != nullptr || error != nullptr; }
};

/// Hooks and knobs for run_isolated.
struct IsolatedRunOptions {
  /// Concurrent lanes (0 = global pool size, 1 = serial).
  std::size_t jobs = 0;
  /// Sweep-wide stop: once tripped, lanes stop pulling new cells (cells
  /// already in flight are cancelled through their own tokens when those
  /// chain to this one).
  util::StopToken stop;
  /// false: the first failing cell also stops lanes from pulling new cells
  /// (already-pulled cells still finish and are reported).
  bool keep_going = true;
  /// Per-cell token factory, called in the lane immediately before the cell
  /// starts (so deadlines measure per-cell wall clock). Default: `stop`.
  std::function<util::StopToken(std::size_t)> cell_stop;
  /// Called in the lane after the token is built and before the simulation —
  /// the test-only fault-injection point; a throw becomes the cell's error.
  std::function<void(std::size_t, const util::StopToken&)> on_start;
  /// Called once per attempted cell as it finishes, serialized under an
  /// internal mutex (safe to append to a journal). Must not throw.
  std::function<void(std::size_t, const CellOutcome&)> on_finish;
};

class ExperimentRunner {
 public:
  /// `base` supplies everything except the policy (fairshare decay, WCL
  /// enforcement, snapshot recording); `fst_options` is the metric
  /// configuration every cached report is evaluated with (tolerance,
  /// knowledge model) — per-runner, so cached reports never mix tolerances.
  /// The workload is copied once and is read-only afterwards, so concurrent
  /// simulations can share it.
  ExperimentRunner(Workload workload, EngineConfig base = {},
                   metrics::FstOptions fst_options = {});

  /// Simulate `policy` (or return the cached result). Thread-safe and
  /// single-flight: duplicate configs simulate exactly once regardless of how
  /// many threads ask; a failed flight rethrows its error to every caller
  /// that joined it, and the next fresh call retries. `stop` (when valid)
  /// cancels the simulation at an event boundary with SimulationCancelled;
  /// empty falls back to the base config's token. Returned references stay
  /// valid for the runner's lifetime. `cache_hit` (optional) reports whether
  /// the result was served without simulating here — a Done entry or a
  /// joined in-flight computation.
  const ExperimentResult& run(const PolicyConfig& policy, util::StopToken stop = {},
                              bool* cache_hit = nullptr);

  /// Run several policies, up to `jobs` concurrently on util::global_pool()
  /// (0 = pool size; 1 = serial). Results are returned in input order and are
  /// byte-identical to a serial sweep regardless of thread count: each
  /// simulation owns all its mutable state, and the FST aggregation inside
  /// each run is index-deterministic. The first error aborts the sweep (all
  /// lanes join first) and rethrows; a tripped `stop` surfaces as
  /// SimulationCancelled.
  std::vector<const ExperimentResult*> run_all(const std::vector<PolicyConfig>& policies,
                                               std::size_t jobs = 0, util::StopToken stop = {});

  /// Fault-isolated sweep: like run_all, but a failing cell never aborts the
  /// others — each policy gets its own CellOutcome (result, error, or
  /// never-attempted when the sweep stopped first). Never throws for
  /// cell-level failures; exceptions escaping on_finish are rethrown after
  /// all lanes join. The campaign runner builds its per-cell status rows,
  /// timeouts and journal records on top of this.
  std::vector<CellOutcome> run_isolated(const std::vector<PolicyConfig>& policies,
                                        const IsolatedRunOptions& options = {});

  const Workload& workload() const { return workload_; }
  const EngineConfig& base_config() const { return base_; }

 private:
  /// One cache slot per canonical key. A small state machine instead of
  /// once_flag so failed flights can be retried: Done is terminal (result
  /// references must stay valid), Failed is evicted by the next caller.
  struct CacheEntry {
    enum class State { Empty, Running, Done, Failed };
    std::mutex mutex;
    std::condition_variable cv;
    State state = State::Empty;
    std::unique_ptr<ExperimentResult> result;
    std::exception_ptr error;
  };

  CacheEntry& entry_for(const PolicyConfig& policy);

  Workload workload_;
  EngineConfig base_;
  metrics::FstOptions fst_options_;
  std::mutex mutex_;  ///< guards cache_ lookup/insert only, never held while simulating
  std::map<std::string, std::unique_ptr<CacheEntry>> cache_;
};

}  // namespace psched::sim
