#include "metrics/fst.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/list_scheduler.hpp"
#include "core/reference_profile.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace psched::metrics {
namespace {

using test::make_job;
using test::make_workload;
using test::run_policy;

FstOptions strict() {
  FstOptions options;
  options.tolerance = 1;
  options.knowledge = FstKnowledge::Perfect;
  return options;
}

TEST(HybridFst, UncontendedJobsAreFair) {
  const Workload w = make_workload(8, {
                                          make_job(0, 100, 4),
                                          make_job(200, 100, 4),
                                      });
  const SimulationResult r = run_policy(w, PolicyKind::Fcfs);
  const FstResult f = hybrid_fairshare_fst(r, strict());
  EXPECT_DOUBLE_EQ(f.percent_unfair, 0.0);
  EXPECT_DOUBLE_EQ(f.avg_miss_all, 0.0);
  EXPECT_EQ(f.fair_start[0], 0);
  EXPECT_EQ(f.fair_start[1], 200);
}

TEST(HybridFst, DetectsOvertakenWideJob) {
  // Under no-guarantee backfilling, narrow later jobs overtake a wide job.
  // The FST (list schedule) would have started the wide job at the drain.
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;
  config.policy.starvation_delay = kNoTime;  // pure no-guarantee
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 1000, 3, 0));   // running, 3 of 4 nodes
  jobs.push_back(make_job(10, 100, 4, 1));   // wide: FST = 1000 (after drain)
  // One-node jobs that keep the machine from draining at t=1000.
  jobs.push_back(make_job(20, 2000, 1, 2));  // starts immediately on the free node
  const Workload w = make_workload(4, jobs);
  const SimulationResult r = sim::simulate(w, config);
  const FstResult f = hybrid_fairshare_fst(r, strict());
  // Wide job: list schedule at its arrival (job 2 not yet arrived) starts it
  // at t=1000; in reality job 2 holds the fourth node until 2020.
  EXPECT_EQ(f.fair_start[1], 1000);
  EXPECT_EQ(r.records[1].start, 2020);
  EXPECT_EQ(f.miss[1], 1020);
  EXPECT_GT(f.percent_unfair, 0.0);
}

TEST(HybridFst, FstUsesFairsharePriorityOrder) {
  // Two jobs arrive while the machine is busy; the light user's job has the
  // earlier FST even though it arrived later.
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;
  config.policy.starvation_delay = kNoTime;  // isolate the queue-order effect
  const Workload w = make_workload(
      4, {
             make_job(0, days(2), 4, /*user=*/0),        // heavy user runs 2 days
             make_job(days(1), 100, 4, /*user=*/0),      // heavy user's job
             make_job(days(1) + 10, 100, 4, /*user=*/1)  // light user's job
         });
  const SimulationResult r = sim::simulate(w, config);
  const FstResult f = hybrid_fairshare_fst(r, strict());
  // Job 2's snapshot contains job 1; fairshare puts user 1 first, so job 2's
  // FST is the drain (2 days), job 1's FST (from its own snapshot) is also
  // the drain -- but job 2 actually starts first. Job 1 must then miss.
  EXPECT_EQ(f.fair_start[2], days(2));
  EXPECT_EQ(r.records[2].start, days(2));
  EXPECT_EQ(f.miss[2], 0);
  EXPECT_GT(f.miss[1], 0);
}

TEST(HybridFst, RequiresSnapshots) {
  const Workload w = make_workload(4, {make_job(0, 10, 1)});
  sim::EngineConfig config;
  config.record_snapshots = false;
  const SimulationResult r = sim::simulate(w, config);
  EXPECT_THROW(hybrid_fairshare_fst(r), std::invalid_argument);
}

TEST(HybridFst, SerialAndParallelAgree) {
  const Workload w = psched::workload::generate_small_workload(41, 300, 64, days(7));
  const SimulationResult r = run_policy(w, PolicyKind::Cplant, PriorityKind::Fairshare);
  FstOptions serial = strict();
  serial.parallel = false;
  FstOptions parallel = strict();
  parallel.parallel = true;
  const FstResult a = hybrid_fairshare_fst(r, serial);
  const FstResult b = hybrid_fairshare_fst(r, parallel);
  ASSERT_EQ(a.fair_start.size(), b.fair_start.size());
  for (std::size_t i = 0; i < a.fair_start.size(); ++i)
    EXPECT_EQ(a.fair_start[i], b.fair_start[i]) << "record " << i;
}

/// Fairshare order of snapshot entries: lower usage, then submit, then id.
bool fairshare_before(const SnapshotWaiting& a, const SnapshotWaiting& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.submit != b.submit) return a.submit < b.submit;
  return a.id < b.id;
}

/// The hybrid FST of one full snapshot (every waiting job, in any order) by
/// a full sort of its waiting set (the definition): list-schedule every
/// waiting job in fairshare order until the target is placed.
Time full_sort_fst(const ArrivalSnapshot& snapshot, NodeCount system_size, bool perfect) {
  ListScheduler list(system_size, snapshot.at);
  for (const SnapshotRunning& r : snapshot.running)
    list.occupy(r.nodes, snapshot.at + std::max<Time>(perfect ? r.remaining : r.est_remaining, 0));
  std::vector<SnapshotWaiting> order = snapshot.waiting;
  std::sort(order.begin(), order.end(), fairshare_before);
  for (const SnapshotWaiting& w : order) {
    const Time start = list.schedule(w.nodes, perfect ? w.runtime : w.wcl, snapshot.at);
    if (w.id == snapshot.id) return start;
  }
  ADD_FAILURE() << "target missing from snapshot " << snapshot.id;
  return kNoTime;
}

TEST(HybridFst, PrefixOrderingMatchesTheFullSortOnRandomSnapshots) {
  // Random full waiting sets whose jobs tie often on priority (three values)
  // and on submit (four values), so many tie-breaks fall to the id; the
  // target sits anywhere in the set, as in an unordered queue. The recorded
  // snapshot is the set's fairshare-sorted prefix up to and including the
  // target, and its FST must equal the full sort's.
  util::Rng rng(4242);
  constexpr NodeCount kSystem = 48;
  constexpr std::size_t kJobs = 400;
  SimulationResult result;
  result.system_size = kSystem;
  std::vector<ArrivalSnapshot> full_snapshots;
  for (std::size_t i = 0; i < kJobs; ++i) {
    ArrivalSnapshot full;
    full.id = static_cast<JobId>(i);
    full.at = rng.uniform_int(1000, 2000);
    for (NodeCount busy = 0;;) {
      const auto nodes = static_cast<NodeCount>(rng.uniform_int(1, 12));
      if (busy + nodes > kSystem || rng.uniform01() < 0.2) break;
      busy += nodes;
      const Time est = rng.uniform_int(1, 5000);
      full.running.push_back({nodes, rng.uniform_int(0, est), est});
    }
    const auto others = static_cast<std::size_t>(rng.uniform_int(0, 30));
    const auto target_at = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(others)));
    std::vector<JobId> ids;
    for (std::size_t j = 0; j <= others; ++j) {
      JobId id = static_cast<JobId>(i);
      while (j != target_at &&
             (id == full.id || std::find(ids.begin(), ids.end(), id) != ids.end()))
        id = static_cast<JobId>(rng.uniform_int(0, 2 * kJobs));
      ids.push_back(id);
      SnapshotWaiting w;
      w.id = id;
      w.nodes = static_cast<NodeCount>(rng.uniform_int(1, kSystem));
      w.runtime = rng.uniform_int(1, 4000);
      w.wcl = w.runtime + rng.uniform_int(0, 4000);
      w.submit = full.at - 100 * rng.uniform_int(0, 3);
      w.priority = 0.5 * static_cast<double>(rng.uniform_int(0, 2));
      full.waiting.push_back(w);
    }

    ArrivalSnapshot prefix;
    prefix.id = full.id;
    prefix.at = full.at;
    prefix.running = full.running;
    prefix.waiting = full.waiting;
    std::sort(prefix.waiting.begin(), prefix.waiting.end(), fairshare_before);
    const auto target = std::find_if(prefix.waiting.begin(), prefix.waiting.end(),
                                     [&](const SnapshotWaiting& w) { return w.id == full.id; });
    ASSERT_NE(target, prefix.waiting.end());
    prefix.waiting.erase(target + 1, prefix.waiting.end());

    JobRecord record;
    record.job = make_job(full.at, 100, 1);
    record.job.id = full.id;
    record.start = full.at;
    record.finish = full.at + 100;
    result.records.push_back(record);
    result.snapshots.push_back(std::move(prefix));
    full_snapshots.push_back(std::move(full));
  }

  for (const bool perfect : {true, false}) {
    FstOptions options;
    options.knowledge = perfect ? FstKnowledge::Perfect : FstKnowledge::Estimates;
    const FstResult f = hybrid_fairshare_fst(result, options);
    for (std::size_t i = 0; i < kJobs; ++i)
      ASSERT_EQ(f.fair_start[i], full_sort_fst(full_snapshots[i], kSystem, perfect))
          << "snapshot " << i << (perfect ? " (perfect)" : " (estimates)");
  }
}

TEST(HybridFst, SnapshotNotEndingWithItsOwnJobThrows) {
  // The last waiting entry must be the snapshot's own job; anything else is
  // a snapshot of another contract and is refused, serial and parallel.
  SnapshotWaiting own;
  own.id = 0;
  own.nodes = 1;
  own.runtime = own.wcl = 10;
  SnapshotWaiting other = own;
  other.id = 1;
  for (const std::vector<SnapshotWaiting>& waiting : {std::vector<SnapshotWaiting>{},
                                                      std::vector<SnapshotWaiting>{other},
                                                      std::vector<SnapshotWaiting>{own, other}}) {
    SimulationResult result;
    result.system_size = 4;
    JobRecord record;
    record.job = make_job(0, 10, 1);
    record.start = 0;
    record.finish = 10;
    result.records.push_back(record);
    ArrivalSnapshot snapshot;
    snapshot.id = 0;
    snapshot.at = 0;
    snapshot.waiting = waiting;
    result.snapshots.push_back(snapshot);
    for (const bool parallel : {false, true}) {
      FstOptions options;
      options.parallel = parallel;
      EXPECT_THROW(hybrid_fairshare_fst(result, options), std::logic_error)
          << waiting.size() << " entries, parallel " << parallel;
    }
  }
}

TEST(HybridFst, EstimateKnowledgeIsMoreLenient) {
  const Workload w = psched::workload::generate_small_workload(43, 300, 64, days(7));
  const SimulationResult r = run_policy(w, PolicyKind::Cplant, PriorityKind::Fairshare);
  FstOptions perfect = strict();
  FstOptions estimates = strict();
  estimates.knowledge = FstKnowledge::Estimates;
  const FstResult p = hybrid_fairshare_fst(r, perfect);
  const FstResult e = hybrid_fairshare_fst(r, estimates);
  // WCL-based hypothetical schedules are pessimistic, so estimate-based FSTs
  // are never earlier in aggregate.
  EXPECT_LE(e.avg_miss_all, p.avg_miss_all * 1.5 + 1.0);
}

TEST(HybridFst, ToleranceMonotonicity) {
  const Workload w = psched::workload::generate_small_workload(47, 300, 32, days(7));
  const SimulationResult r = run_policy(w, PolicyKind::Cplant, PriorityKind::Fairshare);
  double prev = 1.0;
  for (const Time tolerance : {Time(1), hours(1), hours(24)}) {
    FstOptions options = strict();
    options.tolerance = tolerance;
    const FstResult f = hybrid_fairshare_fst(r, options);
    EXPECT_LE(f.percent_unfair, prev + 1e-12);
    prev = f.percent_unfair;
    EXPECT_LE(f.percent_unfair, f.percent_unfair_any + 1e-12);
  }
}

TEST(HybridFst, WidthBreakdownSumsMatch) {
  const Workload w = psched::workload::generate_small_workload(53, 250, 64, days(6));
  const SimulationResult r = run_policy(w, PolicyKind::Easy, PriorityKind::Fairshare);
  const FstResult f = hybrid_fairshare_fst(r, strict());
  std::size_t jobs = 0;
  for (const std::size_t c : f.jobs_by_width) jobs += c;
  EXPECT_EQ(jobs, r.records.size());
  double weighted = 0.0;
  for (std::size_t wdt = 0; wdt < kWidthCategories; ++wdt)
    weighted += f.avg_miss_by_width[wdt] * static_cast<double>(f.jobs_by_width[wdt]);
  EXPECT_NEAR(weighted / static_cast<double>(r.records.size()), f.avg_miss_all, 1e-6);
}

TEST(ConsPFst, PerfectEstimateScheduleIsExactlyFairForFcfsConservative) {
  // A conservative FCFS run with perfect estimates reproduces the CONS_P
  // schedule, so nobody misses.
  WorkloadBuilder edit(psched::workload::generate_small_workload(59, 150, 32, days(4)));
  for (Job& job : edit.jobs) job.wcl = job.runtime;  // perfect estimates
  const Workload w = edit.build();
  const SimulationResult r = run_policy(w, PolicyKind::Conservative, PriorityKind::Fcfs);
  const FstResult f = cons_p_fst(r, strict());
  for (std::size_t i = 0; i < r.records.size(); ++i)
    EXPECT_EQ(f.miss[i], 0) << "record " << i;
}

TEST(ConsPFst, MeasuresDeviationFromConservativeIdeal) {
  const Workload w = psched::workload::generate_small_workload(61, 200, 32, days(5));
  const SimulationResult r = run_policy(w, PolicyKind::Cplant, PriorityKind::Fairshare);
  const FstResult f = cons_p_fst(r, strict());
  // The metric is defined for every record and non-negative.
  for (const Time m : f.miss) EXPECT_GE(m, 0);
  EXPECT_EQ(f.fair_start.size(), r.records.size());
}

TEST(ConsPFst, SlidingOriginMatchesReferenceInsertion) {
  // cons_p_fst slides its profile's origin to each submit. The seed profile,
  // which keeps the whole history, must seat every job at the same instant.
  // A normalized workload's records are already in (submit, id) order.
  const Workload w = psched::workload::generate_small_workload(67, 4000, 128, days(40));
  const SimulationResult r = run_policy(w, PolicyKind::Fcfs);
  const FstResult f = cons_p_fst(r, strict());

  reference::ReferenceProfile profile(r.system_size, r.records.front().job.submit);
  std::size_t delayed = 0;
  for (const JobRecord& rec : r.records) {
    const Job& job = rec.job;
    const Time start = profile.earliest_fit(job.submit, job.runtime, job.nodes);
    profile.add_usage(start, start + job.runtime, job.nodes);
    ASSERT_EQ(f.fair_start[static_cast<std::size_t>(job.id)], start) << "job " << job.id;
    if (start > job.submit) ++delayed;
  }
  // The trace is loaded enough that the plan, not just the submit, decides.
  EXPECT_GT(delayed, r.records.size() / 10);
}

}  // namespace
}  // namespace psched::metrics
