// Deep-plan coverage for Profile: at thousands of reservations — the depth
// of a conservative plan under a burst queue — the optimized profile's
// linear scan, batch API, origin slide and copies must agree with the seed
// implementation (core/reference_profile.hpp) query for query.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/profile.hpp"
#include "core/reference_profile.hpp"
#include "util/rng.hpp"

namespace psched {
namespace {

constexpr std::size_t kDeep = 4096;  ///< reservations every test seats at least
constexpr Time kSpacing = 1000;     ///< horizon per generated interval

struct Interval {
  Time from, to;
  NodeCount nodes;
};

/// Random reservations over a horizon that grows with the count, so the
/// plan keeps ~2 breakpoints per seated interval instead of saturating.
std::vector<Interval> random_intervals(util::Rng& rng, std::size_t count) {
  std::vector<Interval> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Interval iv;
    iv.from = rng.uniform_int(0, static_cast<Time>(count) * kSpacing);
    iv.to = iv.from + rng.uniform_int(600, 40'000);
    iv.nodes = static_cast<NodeCount>(rng.uniform_int(1, 96));
    out.push_back(iv);
  }
  return out;
}

/// Seat every interval that fits; returns how many were seated.
template <typename ProfileT>
std::size_t seat(ProfileT& profile, const std::vector<Interval>& intervals) {
  std::size_t seated = 0;
  for (const Interval& iv : intervals) {
    if (!profile.fits_at(iv.from, iv.to - iv.from, iv.nodes)) continue;
    profile.add_usage(iv.from, iv.to, iv.nodes);
    ++seated;
  }
  return seated;
}

/// Deterministic query sweep: earliest_fit, fits_at and free_at at several
/// widths from `from` to `to`. Byte-comparable across implementations.
template <typename ProfileT>
std::string probe(const ProfileT& profile, Time from, Time to) {
  std::string out;
  for (Time t = from; t < to; t += 9'973) {
    out += std::to_string(profile.free_at(t)) + ":";
    for (const NodeCount w : {NodeCount{3}, NodeCount{300}, NodeCount{900}}) {
      out += std::to_string(profile.earliest_fit(t, 7200, w)) + ",";
      out += profile.fits_at(t, 3600, w) ? "y," : "n,";
    }
  }
  return out + profile.debug_string();
}

TEST(ProfileDeep, DeepPackMatchesReference) {
  // The replan inner loop: alternate earliest_fit and add_usage until the
  // plan holds thousands of seated jobs. Every slot and the final
  // breakpoint array must match the seed implementation.
  util::Rng rng(9001);
  Profile opt(512, 0);
  reference::ReferenceProfile ref(512, 0);
  for (std::size_t i = 0; i < 5000; ++i) {
    const auto nodes = static_cast<NodeCount>(rng.uniform_int(1, 96));
    const Time length = rng.uniform_int(300, 36'000);
    const Time at = opt.earliest_fit(0, length, nodes);
    ASSERT_EQ(at, ref.earliest_fit(0, length, nodes)) << "slot diverged for job " << i;
    opt.add_usage(at, at + length, nodes);
    ref.add_usage(at, at + length, nodes);
  }
  opt.check_invariants();
  EXPECT_GE(opt.breakpoints(), kDeep);
  EXPECT_EQ(opt.debug_string(), ref.debug_string());
}

TEST(ProfileDeep, DeepBatchAndAdvanceOriginMatchReference) {
  util::Rng rng(55);
  const std::vector<Interval> intervals = random_intervals(rng, 3 * kDeep);
  const Time horizon = static_cast<Time>(intervals.size()) * kSpacing;
  Profile opt(1024, 0);
  reference::ReferenceProfile ref(1024, 0);
  std::vector<Time> edges;  // every breakpoint time either profile can hold
  opt.begin_batch();
  for (const Interval& iv : intervals) {
    if (ref.fits_at(iv.from, iv.to - iv.from, iv.nodes)) {
      opt.add_usage(iv.from, iv.to, iv.nodes);
      ref.add_usage(iv.from, iv.to, iv.nodes);
      edges.push_back(iv.from);
      edges.push_back(iv.to);
    }
    // Queries stay exact inside the batch, before its coalescing pass.
    const Time t = rng.uniform_int(0, horizon);
    ASSERT_EQ(opt.earliest_fit(t, 3600, 600), ref.earliest_fit(t, 3600, 600)) << t;
  }
  opt.end_batch();
  ASSERT_GE(edges.size(), 2 * kDeep);
  ASSERT_EQ(opt.debug_string(), ref.debug_string());

  // advance_origin drops the prefix; everything from the cut on is unchanged,
  // step for step.
  const Time cut = horizon / 3;
  opt.advance_origin(cut);
  ASSERT_NO_THROW(opt.check_invariants());
  for (const Time t : edges) {
    if (t < cut) continue;
    ASSERT_EQ(opt.free_at(t), ref.free_at(t)) << t;
  }
  for (Time t = cut; t < horizon + 50'000; t += 4'999) {
    ASSERT_EQ(opt.free_at(t), ref.free_at(t)) << t;
    ASSERT_EQ(opt.earliest_fit(t, 7200, 700), ref.earliest_fit(t, 7200, 700)) << t;
    ASSERT_EQ(opt.fits_at(t, 7200, 300), ref.fits_at(t, 7200, 300)) << t;
  }
}

TEST(ProfileDeep, CopyIsIndependentAndMatchesReference) {
  // Pins the copy semantics the forkable engine depends on (the conservative
  // clone() copies its persistent plan profile wholesale): after a copy of a
  // deep profile, divergent mutations on either side must not leak into the
  // other, and each side must answer exactly like the seed implementation
  // replaying the same history.
  util::Rng rng(20260730);
  const std::vector<Interval> base = random_intervals(rng, 2 * kDeep);
  const std::vector<Interval> tail_a = random_intervals(rng, 400);
  const std::vector<Interval> tail_b = random_intervals(rng, 400);
  const Time horizon = static_cast<Time>(base.size()) * kSpacing + 50'000;

  Profile original(1024, 0);
  ASSERT_GE(seat(original, base), kDeep);
  original.earliest_fit(0, 3600, 800);  // leave a warm cursor hint behind

  Profile copy = original;
  seat(original, tail_a);
  seat(copy, tail_b);
  original.check_invariants();
  copy.check_invariants();

  const auto replay = [&](const std::vector<Interval>& tail) {
    reference::ReferenceProfile ref(1024, 0);
    seat(ref, base);
    seat(ref, tail);
    return probe(ref, 0, horizon);
  };
  EXPECT_EQ(probe(original, 0, horizon), replay(tail_a));
  EXPECT_EQ(probe(copy, 0, horizon), replay(tail_b));
}

}  // namespace
}  // namespace psched
