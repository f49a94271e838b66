#include "metrics/fst.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/list_scheduler.hpp"
#include "core/profile.hpp"
#include "util/thread_pool.hpp"

namespace psched::metrics {

namespace {

/// Reusable per-thread state for the per-job FST loop. One simulation can
/// have thousands of snapshots; reusing the list scheduler keeps the loop
/// allocation-free after warm-up.
struct FstScratch {
  std::optional<ListScheduler> list;

  ListScheduler& list_for(NodeCount system_size, Time origin) {
    if (!list || list->node_count() != system_size)
      list.emplace(system_size, origin);
    else
      list->reset(origin);
    return *list;
  }
};

/// FST of one snapshot: list-schedule its waiting list, in order, on top of
/// the running jobs; the last entry is the target and its start is the FST.
/// The engine records exactly the jobs ahead of the target in fairshare
/// order (lower published usage, then earlier submit, then lower id — the
/// order of Scheduler::sorted_by_priority), so nothing is filtered or sorted
/// here.
Time snapshot_fst(const ArrivalSnapshot& snapshot, NodeCount system_size, FstKnowledge knowledge,
                  FstScratch& scratch) {
  if (snapshot.waiting.empty() || snapshot.waiting.back().id != snapshot.id)
    throw std::logic_error("snapshot_fst: the waiting list of snapshot " +
                           std::to_string(snapshot.id) + " does not end with its own job");
  const bool perfect = knowledge == FstKnowledge::Perfect;
  ListScheduler& list = scratch.list_for(system_size, snapshot.at);
  for (const SnapshotRunning& r : snapshot.running)
    list.occupy(r.nodes, snapshot.at + std::max<Time>(perfect ? r.remaining : r.est_remaining, 0));

  Time start = kNoTime;
  for (const SnapshotWaiting& w : snapshot.waiting)
    start = list.schedule(w.nodes, perfect ? w.runtime : w.wcl, snapshot.at);
  return start;
}

}  // namespace

void aggregate_fst(const SimulationResult& result, const FstOptions& options, FstResult& fst) {
  const std::size_t n = result.records.size();
  fst.miss.assign(n, 0);
  std::size_t unfair = 0;
  std::size_t unfair_any = 0;
  double unfair_load = 0.0;
  double total_load = 0.0;
  double miss_total = 0.0;
  double miss_unfair_total = 0.0;
  std::array<double, kWidthCategories> miss_by_width{};

  for (std::size_t i = 0; i < n; ++i) {
    const JobRecord& record = result.records[i];
    const Time miss = std::max<Time>(0, record.start - fst.fair_start[i]);
    fst.miss[i] = miss;
    miss_total += static_cast<double>(miss);
    fst.max_miss = std::max(fst.max_miss, static_cast<double>(miss));
    total_load += record.job.proc_seconds();

    const auto w = static_cast<std::size_t>(width_category(record.job.nodes));
    ++fst.jobs_by_width[w];
    miss_by_width[w] += static_cast<double>(miss);
    if (miss > 1) ++unfair_any;
    if (miss > options.tolerance) {
      ++unfair;
      ++fst.unfair_by_width[w];
      unfair_load += record.job.proc_seconds();
      miss_unfair_total += static_cast<double>(miss);
    }
  }

  if (n > 0) {
    fst.percent_unfair = static_cast<double>(unfair) / static_cast<double>(n);
    fst.percent_unfair_any = static_cast<double>(unfair_any) / static_cast<double>(n);
    fst.percent_unfair_load = total_load > 0.0 ? unfair_load / total_load : 0.0;
    fst.avg_miss_all = miss_total / static_cast<double>(n);
    fst.avg_miss_unfair = unfair > 0 ? miss_unfair_total / static_cast<double>(unfair) : 0.0;
  }
  for (std::size_t w = 0; w < kWidthCategories; ++w)
    if (fst.jobs_by_width[w] > 0)
      fst.avg_miss_by_width[w] = miss_by_width[w] / static_cast<double>(fst.jobs_by_width[w]);
}

FstResult hybrid_fairshare_fst(const SimulationResult& result, const FstOptions& options) {
  const std::size_t n = result.records.size();
  if (result.snapshots.size() != n)
    throw std::invalid_argument(
        "hybrid_fairshare_fst: result has no arrival snapshots (run the engine with "
        "record_snapshots = true)");

  FstResult fst;
  fst.fair_start.assign(n, kNoTime);

  const auto compute_one = [&](std::size_t i) {
    thread_local FstScratch scratch;
    fst.fair_start[i] =
        snapshot_fst(result.snapshots[i], result.system_size, options.knowledge, scratch);
  };
  if (options.parallel)
    util::parallel_for(n, compute_one, /*min_chunk=*/16);
  else
    for (std::size_t i = 0; i < n; ++i) compute_one(i);

  aggregate_fst(result, options, fst);
  return fst;
}

FstResult cons_p_fst(const SimulationResult& result, const FstOptions& options) {
  const std::size_t n = result.records.size();
  FstResult fst;
  fst.fair_start.assign(n, kNoTime);
  if (n == 0) {
    aggregate_fst(result, options, fst);
    return fst;
  }

  // Perfect estimates make conservative backfilling one-shot: each arriving
  // job takes the earliest hole and never moves (nobody ever finishes early,
  // so no compression is possible). Insert records in submit order (FCFS).
  // Nothing after a job's submit ever looks before it, so the profile slides
  // its origin to each submit: the plan then holds only reservations still
  // in the future, not the whole trace's history.
  std::vector<const JobRecord*> order;
  order.reserve(n);
  for (const JobRecord& r : result.records) order.push_back(&r);
  std::sort(order.begin(), order.end(), [](const JobRecord* a, const JobRecord* b) {
    if (a->job.submit != b->job.submit) return a->job.submit < b->job.submit;
    return a->job.id < b->job.id;
  });

  Profile profile(result.system_size, order.front()->job.submit);
  for (const JobRecord* r : order) {
    profile.advance_origin(r->job.submit);
    const Time start = profile.earliest_fit(r->job.submit, r->job.runtime, r->job.nodes);
    profile.add_usage(start, start + r->job.runtime, r->job.nodes);
    fst.fair_start[static_cast<std::size_t>(r->job.id)] = start;
  }

  aggregate_fst(result, options, fst);
  return fst;
}

}  // namespace psched::metrics
