#pragma once
// Zero-cost-when-off observability: subsystem counters, max-gauges and RAII
// spans, armed process-wide via PSCHED_TRACE or programmatically (arm()).
// Same discipline as the fault registry (util/fault.hpp): every disarmed
// instrumentation point is one relaxed atomic load and a never-taken branch,
// so the hot paths carry their instrumentation permanently.
//
//   PSCHED_TRACE=trace.json   arm everything; write a Chrome trace-event /
//                             Perfetto JSON file (spans + counter dump) at
//                             process exit — open it in ui.perfetto.dev
//   PSCHED_TRACE=1            arm without an exit file (counters/breakdowns
//                             only; tools print them via --stats)
//
// Counters come in two classes, split in every dump:
//   * deterministic — byte-reproducible at any --jobs level (engine event
//     counts, replans, fork counts, cache misses, journal appends, store
//     writes): sums of per-cell-deterministic quantities,
//     commutative across lanes.
//   * scheduling — a function of how work landed on threads (pool task
//     counts, queue high-water, cache hit/wait split, retry reissues, peak
//     fork-batch bytes): real, useful, and deliberately excluded from
//     determinism comparisons.
//
// Spans are scoped: construct with a static name, optionally set_arg() under
// an armed() guard (so the disarmed path never allocates), and the
// destructor records a complete event into a per-thread buffer. The span
// hierarchy (campaign > group > sweep > cell > fork-batch / store-write) is
// catalogued in docs/observability.md.
//
// The load-bearing contract, pinned by tests and the CI trace leg: arming
// changes NO result byte — cells.csv is identical, and summary.json is
// identical after stripping the "breakdown" block that only an armed run
// emits. Wall-clock reads live in src/obs/clock.cpp alone.

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace psched::obs {

/// The counter catalog. Order is the dump order; names and the
/// deterministic/scheduling class live in kCounterInfo (obs.cpp exposes them
/// via counters_snapshot()). Keep docs/observability.md in sync.
enum class Counter : std::size_t {
  // deterministic class
  kEngineEventsDelivered,       ///< sim/engine.cpp: events consumed by run_loop
  kEngineSchedulerInvocations,  ///< sim/engine.cpp: collect_starts batches
  kEngineSnapshotEntries,       ///< sim/engine.cpp: SnapshotWaiting entries recorded
  kSchedReplanFull,             ///< core/conservative_scheduler.cpp: full rebuilds
  kSchedReplanIncremental,      ///< core/conservative_scheduler.cpp: incremental attempts
  kSchedQueueSorts,             ///< core/scheduler.cpp: full wait-queue sorts
  kGapIndexProbes,              ///< no increment site; kept for perfbench's schema
  kGapIndexSkips,               ///< no increment site; kept for perfbench's schema
  kFstForks,                    ///< sim/policy_fst.cpp: jobs answered (one per job)
  kFstForksDrained,             ///< sim/policy_fst.cpp: jobs answered by a drained fork
  kFstResolvedFromMaster,       ///< sim/policy_fst.cpp: jobs answered by their master start
  kExperimentCacheMisses,       ///< sim/experiment.cpp: configs that became the flight
  kJournalAppends,              ///< scenario/journal.cpp: fsynced journal lines
  kStoreAtomicWrites,           ///< util/atomic_file.cpp: atomic_write_file calls
  // scheduling class
  kExperimentCacheHits,         ///< sim/experiment.cpp: served from a Done entry
  kExperimentSingleFlightWaits, ///< sim/experiment.cpp: joined a Running flight
  kPoolTasksLeaf,               ///< util/thread_pool.cpp: leaf chunks enqueued
  kPoolTasksCompound,           ///< util/thread_pool.cpp: compound tasks enqueued
  kPoolQueueDepthHighWater,     ///< util/thread_pool.cpp: max queued tasks (gauge)
  kFstPeakBatchBytes,           ///< sim/policy_fst.cpp: max live fork-batch bytes (gauge)
  kRetryReissues,               ///< util/retry.cpp: I/O ops reissued after a transient
  kCounterCount,                // sentinel
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCounterCount);

namespace detail {
/// Armed flag; false means every count()/record_max()/Span is a single
/// relaxed load + never-taken branch.
extern std::atomic<bool> g_armed;
extern std::array<std::atomic<std::uint64_t>, kCounterCount> g_counters;
}  // namespace detail

inline bool armed() { return detail::g_armed.load(std::memory_order_relaxed); }

/// Bump a counter by `n`. Relaxed adds are commutative, so deterministic-class
/// totals are byte-reproducible at any parallelism level.
inline void count(Counter counter, std::uint64_t n = 1) {
  if (!armed()) return;
  detail::g_counters[static_cast<std::size_t>(counter)].fetch_add(n, std::memory_order_relaxed);
}

/// Raise a max-gauge to at least `value` (queue high-water, peak batch bytes).
inline void record_max(Counter counter, std::uint64_t value) {
  if (!armed()) return;
  std::atomic<std::uint64_t>& slot = detail::g_counters[static_cast<std::size_t>(counter)];
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value && !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

/// Scoped trace span. Disarmed: the constructor is one relaxed load and the
/// destructor a dead-branch test. Armed: records a complete event (name, arg,
/// start, duration, stable thread index) into this thread's buffer at scope
/// exit. set_arg() only stores when the span is live — guard any allocating
/// argument build with armed() at the call site.
class Span {
 public:
  explicit Span(const char* name) {
    if (armed()) begin(name);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (active_) end();
  }

  void set_arg(std::string arg) {
    if (active_) arg_ = std::move(arg);
  }

 private:
  void begin(const char* name);
  void end();

  bool active_ = false;
  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
  std::string arg_;
};

/// Arm counters + spans process-wide (idempotent). The PSCHED_TRACE
/// environment variable arms at static init; tools arm for --trace/--stats.
void arm();

/// Disarm and zero every counter and span buffer (test isolation).
void reset();

/// Register `path` to receive the trace JSON at process exit (what
/// PSCHED_TRACE=<path> does). An empty path cancels a pending export.
void set_exit_trace_path(const std::string& path);

/// One counter's snapshot row.
struct CounterValue {
  const char* name = "";
  std::uint64_t value = 0;
  bool deterministic = false;
};

/// Snapshot every counter in catalog order (readable disarmed, for deltas).
std::vector<CounterValue> counters_snapshot();

/// Current value of one counter.
std::uint64_t counter_value(Counter counter);

/// Chrome trace-event JSON: {"traceEvents": [...], "counters": {...}}.
/// Loadable in ui.perfetto.dev (unknown top-level keys are ignored there);
/// the "counters" object carries the deterministic/scheduling dump.
void write_trace_json(std::ostream& out);

/// Counter dump alone, as JSON {"deterministic": {...}, "scheduling": {...}}.
void write_counters_json(std::ostream& out);

/// Write the trace JSON to `path` via the atomic store writer. Returns false
/// (with the error on stderr) instead of throwing — traces are diagnostics,
/// losing one must not fail a campaign that already wrote its results.
bool write_trace_file(const std::string& path);

}  // namespace psched::obs
