// Deep-queue coverage for the gap-indexed Profile: the time-bucketed
// min/feasible-run index must be invisible in results (only in cost) at
// every depth. These tests force the index on/off around the crossover
// threshold and diff against both the preserved seed implementation and the
// linear-scan path, profile-level and end-to-end through the
// conservative/CPlant schedulers.

#include <gtest/gtest.h>

#include <vector>

#include "core/profile.hpp"
#include "core/reference_profile.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace psched {
namespace {

TEST(ProfileDeep, ForcedIndexMatchesReferenceOnRandomOps) {
  // The randomized diff of test_core_profile_diff.cpp, but with the index
  // forced on from the first breakpoint, so shallow profiles exercise the
  // tree descents and the lazy suffix rebuilds too.
  Profile::ThresholdGuard guard(Profile::kForceIndex);
  util::Rng rng(20260729);
  for (int round = 0; round < 10; ++round) {
    const NodeCount capacity = static_cast<NodeCount>(rng.uniform_int(4, 1024));
    Profile opt(capacity, 0);
    reference::ReferenceProfile ref(capacity, 0);
    struct Interval {
      Time from, to;
      NodeCount nodes;
    };
    std::vector<Interval> live;
    for (int op = 0; op < 300; ++op) {
      if (rng.uniform01() < 0.6 || live.empty()) {
        Interval iv;
        iv.from = rng.uniform_int(0, 300'000);
        iv.to = iv.from + rng.uniform_int(1, 80'000);
        iv.nodes = static_cast<NodeCount>(rng.uniform_int(1, capacity));
        bool ok_opt = true, ok_ref = true;
        try {
          opt.add_usage(iv.from, iv.to, iv.nodes);
        } catch (const std::logic_error&) {
          ok_opt = false;
        }
        try {
          ref.add_usage(iv.from, iv.to, iv.nodes);
        } catch (const std::logic_error&) {
          ok_ref = false;
        }
        ASSERT_EQ(ok_opt, ok_ref) << "acceptance diverged at op " << op;
        if (ok_opt) live.push_back(iv);
      } else {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const Interval iv = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        opt.remove_usage(iv.from, iv.to, iv.nodes);
        ref.remove_usage(iv.from, iv.to, iv.nodes);
      }
      ASSERT_NO_THROW(opt.check_invariants());
      for (int q = 0; q < 4; ++q) {
        const Time t = rng.uniform_int(0, 400'000);
        const Time dur = rng.uniform_int(1, 120'000);
        const NodeCount w = static_cast<NodeCount>(rng.uniform_int(1, capacity));
        ASSERT_EQ(opt.free_at(t), ref.free_at(t));
        ASSERT_EQ(opt.fits_at(t, dur, w), ref.fits_at(t, dur, w));
        ASSERT_EQ(opt.earliest_fit(t, dur, w), ref.earliest_fit(t, dur, w))
            << "op " << op << " t=" << t << " dur=" << dur << " w=" << w;
      }
    }
  }
}

TEST(ProfileDeep, ForcedIndexSurvivesBatchesAndAdvanceOrigin) {
  Profile::ThresholdGuard guard(Profile::kForceIndex);
  util::Rng rng(55);
  Profile opt(256, 0);
  reference::ReferenceProfile ref(256, 0);
  opt.begin_batch();
  for (int i = 0; i < 400; ++i) {
    const Time from = rng.uniform_int(0, 250'000);
    const Time to = from + rng.uniform_int(60, 40'000);
    const NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(1, 24));
    if (ref.fits_at(from, to - from, nodes)) {
      opt.add_usage(from, to, nodes);
      ref.add_usage(from, to, nodes);
    }
    // Queries stay exact (and indexed) inside the batch.
    const Time t = rng.uniform_int(0, 300'000);
    ASSERT_EQ(opt.earliest_fit(t, 3600, 64), ref.earliest_fit(t, 3600, 64));
  }
  opt.end_batch();
  ASSERT_EQ(opt.debug_string(), ref.debug_string());

  // advance_origin drops a prefix: the index must resync from scratch.
  const Time cut = 120'000;
  opt.advance_origin(cut);
  ASSERT_NO_THROW(opt.check_invariants());
  for (Time t = cut; t < 320'000; t += 503) {
    ASSERT_EQ(opt.free_at(t), ref.free_at(t)) << t;
    ASSERT_EQ(opt.earliest_fit(t, 7200, 128), ref.earliest_fit(t, 7200, 128)) << t;
  }
}

TEST(ProfileDeep, FarFutureReservationRekeysInsteadOfResizing) {
  // Regression: index_sync used to extend the bucket tables to the new
  // horizon at the old bucket width BEFORE the re-key check could run, so
  // one far-future reservation on a dense profile demanded a multi-gigabyte
  // allocation (~17 GB for the horizon below). The re-key decision must
  // fire on the would-be bucket count; if it regresses, this test OOMs.
  Profile::ThresholdGuard guard(Profile::kForceIndex);
  util::Rng rng(7);
  Profile opt(1024, 0);
  reference::ReferenceProfile ref(1024, 0);
  for (int i = 0; i < 2000; ++i) {
    const Time from = rng.uniform_int(0, 1'200'000);
    const Time to = from + rng.uniform_int(60, 40'000);
    const NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(1, 64));
    if (ref.fits_at(from, to - from, nodes)) {
      opt.add_usage(from, to, nodes);
      ref.add_usage(from, to, nodes);
    }
  }
  opt.earliest_fit(0, 3600, 512);  // key the index to the dense ~1.2M-s span
  const Time far = Time{1} << 40;  // ~35k-year horizon in seconds
  opt.add_usage(far, far + 100, 1024);
  ref.add_usage(far, far + 100, 1024);
  for (Time t = 0; t < 1'400'000; t += 37'003) {
    ASSERT_EQ(opt.earliest_fit(t, 3600, 512), ref.earliest_fit(t, 3600, 512)) << t;
  }
  ASSERT_EQ(opt.earliest_fit(far - 50, 200, 1024), ref.earliest_fit(far - 50, 200, 1024));
  ASSERT_EQ(opt.free_at(far + 50), ref.free_at(far + 50));

  // Removing the far reservation collapses the span back to ~1.2M s while
  // the table still covers the 2^40 horizon; the shrink-side re-key must
  // restore a dense keying (and queries must stay exact through it).
  opt.remove_usage(far, far + 100, 1024);
  ref.remove_usage(far, far + 100, 1024);
  for (Time t = 0; t < 1'400'000; t += 37'003) {
    ASSERT_EQ(opt.earliest_fit(t, 3600, 512), ref.earliest_fit(t, 3600, 512)) << t;
    ASSERT_EQ(opt.fits_at(t, 7200, 256), ref.fits_at(t, 7200, 256)) << t;
  }
}

TEST(ProfileDeep, DeepPackIndexedMatchesLinearScan) {
  // The replan inner loop at 5k+ reservations: alternate earliest_fit and
  // add_usage until the plan holds thousands of seated jobs. The indexed
  // profile must pick byte-identical slots to the linear-scan path and end
  // with an identical breakpoint array.
  util::Rng widths_rng(9001);
  std::vector<NodeCount> widths;
  std::vector<Time> lengths;
  for (int i = 0; i < 5000; ++i) {
    widths.push_back(static_cast<NodeCount>(widths_rng.uniform_int(1, 96)));
    lengths.push_back(widths_rng.uniform_int(300, 36'000));
  }

  auto pack = [&](std::size_t threshold) {
    Profile::ThresholdGuard guard(threshold);
    Profile profile(512, 0);
    std::vector<Time> starts;
    starts.reserve(widths.size());
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const Time at = profile.earliest_fit(0, lengths[i], widths[i]);
      profile.add_usage(at, at + lengths[i], widths[i]);
      starts.push_back(at);
    }
    profile.check_invariants();
    return std::make_pair(std::move(starts), profile.debug_string());
  };

  const auto [starts_indexed, shape_indexed] = pack(Profile::kForceIndex);
  const auto [starts_linear, shape_linear] = pack(Profile::kDisableIndex);
  ASSERT_EQ(starts_indexed.size(), starts_linear.size());
  for (std::size_t i = 0; i < starts_indexed.size(); ++i)
    ASSERT_EQ(starts_indexed[i], starts_linear[i]) << "slot diverged for job " << i;
  EXPECT_EQ(shape_indexed, shape_linear);
}

/// A burst workload that drives the waiting queue deep: everyone arrives
/// within the first hour on a small machine, so the conservative plan holds
/// hundreds of simultaneous reservations and every completion triggers a
/// heavy compression pass.
Workload burst_workload(std::size_t jobs) {
  util::Rng rng(7777);
  WorkloadBuilder b;
  b.system_size = 64;
  for (std::size_t i = 0; i < jobs; ++i) {
    Job job;
    job.id = static_cast<JobId>(i);
    job.user = static_cast<UserId>(rng.uniform_int(0, 7));
    job.submit = rng.uniform_int(0, 3600);
    job.nodes = static_cast<NodeCount>(rng.uniform_int(1, 16));
    job.runtime = rng.uniform_int(120, 4000);
    job.wcl = job.runtime + rng.uniform_int(0, 2000);
    b.jobs.push_back(job);
  }
  b.normalize();
  Workload w = b.build();
  w.validate();
  return w;
}

TEST(ProfileDeep, CopyMidDirtyIsIndependentAndMatchesLinear) {
  // Pins the copy semantics the forkable engine depends on (the conservative
  // clone() copies its persistent plan profile wholesale): a Profile copied
  // MID-DIRTY — warmed bucket aggregates from earlier queries plus a pending
  // gap-index dirty range from un-probed mutations — must behave, on both
  // sides of the copy, exactly like a fresh linear-scan profile replaying
  // the same operation history. Divergent mutations after the copy must not
  // leak between the copies in either direction.
  Profile::ThresholdGuard guard(Profile::kForceIndex);
  util::Rng rng(20260730);

  struct Op {
    Time from, to;
    NodeCount nodes;
  };
  const auto random_op = [&rng] {
    Op op;
    op.from = rng.uniform_int(0, 900'000);
    op.to = op.from + rng.uniform_int(60, 50'000);
    op.nodes = static_cast<NodeCount>(rng.uniform_int(1, 48));
    return op;
  };
  const auto apply = [](Profile& profile, const std::vector<Op>& ops) {
    for (const Op& op : ops)
      if (profile.fits_at(op.from, op.to - op.from, op.nodes))
        profile.add_usage(op.from, op.to, op.nodes);
  };
  // Deterministic query probe: earliest_fit sweep at several widths, plus the
  // final breakpoint shape. Byte-comparable across profiles.
  const auto probe = [](const Profile& profile) {
    std::string out;
    for (Time t = 0; t < 1'000'000; t += 43'067)
      for (const NodeCount w : {NodeCount{3}, NodeCount{60}, NodeCount{250}})
        out += std::to_string(profile.earliest_fit(t, 7200, w)) + ",";
    return out + profile.debug_string();
  };

  // Base history: deep pack (warms the index via fits_at probes), then a
  // mutation burst with NO query in between, leaving a pending dirty range.
  std::vector<Op> base;
  for (int i = 0; i < 3000; ++i) base.push_back(random_op());
  std::vector<Op> dirty_tail;
  for (int i = 0; i < 40; ++i) dirty_tail.push_back(random_op());

  Profile original(256, 0);
  apply(original, base);
  original.earliest_fit(0, 3600, 200);  // warm bucket aggregates
  apply(original, dirty_tail);          // ...then dirty them, un-probed

  Profile copy = original;  // copy taken mid-dirty

  // Divergent histories after the copy.
  std::vector<Op> tail_a, tail_b;
  for (int i = 0; i < 200; ++i) tail_a.push_back(random_op());
  for (int i = 0; i < 200; ++i) tail_b.push_back(random_op());
  apply(original, tail_a);
  apply(copy, tail_b);
  const std::string probe_original = probe(original);
  const std::string probe_copy = probe(copy);
  original.check_invariants();
  copy.check_invariants();

  // Linear-path replays of the two full histories.
  const auto replay_linear = [&](const std::vector<Op>& tail) {
    Profile::ThresholdGuard off(Profile::kDisableIndex);
    Profile linear(256, 0);
    apply(linear, base);
    linear.earliest_fit(0, 3600, 200);
    apply(linear, dirty_tail);
    apply(linear, tail);
    return probe(linear);
  };
  EXPECT_EQ(probe_original, replay_linear(tail_a));
  EXPECT_EQ(probe_copy, replay_linear(tail_b));
}

TEST(ProfileDeep, HeavyReplanSimulationIsIndexInvariant) {
  // End-to-end: conservative (static + dynamic) and CPlant runs over a deep
  // burst queue must produce identical schedules with the index forced on
  // and forced off — the index wires into the persistent replan profile, the
  // per-pass backfill profile and the starvation head reservation without
  // changing one decision.
  const Workload trace = burst_workload(500);
  for (const PolicyKind kind :
       {PolicyKind::Conservative, PolicyKind::ConservativeDynamic, PolicyKind::Cplant}) {
    auto run = [&](std::size_t threshold) {
      Profile::ThresholdGuard guard(threshold);
      sim::EngineConfig config;
      config.policy.kind = kind;
      config.record_snapshots = false;
      return sim::simulate(trace, config);
    };
    const SimulationResult indexed = run(Profile::kForceIndex);
    const SimulationResult linear = run(Profile::kDisableIndex);
    ASSERT_EQ(indexed.records.size(), linear.records.size());
    for (std::size_t i = 0; i < indexed.records.size(); ++i) {
      ASSERT_EQ(indexed.records[i].start, linear.records[i].start)
          << "policy " << static_cast<int>(kind) << " record " << i;
      ASSERT_EQ(indexed.records[i].finish, linear.records[i].finish)
          << "policy " << static_cast<int>(kind) << " record " << i;
    }
    EXPECT_EQ(indexed.busy_proc_seconds, linear.busy_proc_seconds);
    EXPECT_EQ(indexed.loc_proc_seconds, linear.loc_proc_seconds);
  }
}

}  // namespace
}  // namespace psched
