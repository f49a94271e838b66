#pragma once
// Maximum-runtime limits (paper section 5.1): jobs longer than a threshold
// must be submitted as several <= threshold segments, giving the scheduler a
// very coarse form of preemption. CPlant users already checkpointed, so the
// paper treats the split as cheap.
//
// As in the paper's trace preprocessing, every segment is submitted at the
// original job's submit time, with no dependency between segments. The
// simulation engine seeds the segments; the splitting arithmetic lives here
// so it can be unit-tested in isolation.

#include "core/job.hpp"
#include "core/types.hpp"

namespace psched {

class RuntimeLimiter {
 public:
  /// max_runtime == kNoTime disables splitting entirely.
  explicit RuntimeLimiter(Time max_runtime);

  bool enabled() const { return max_runtime_ != kNoTime; }
  Time max_runtime() const { return max_runtime_; }

  /// Number of segments `original` will be split into (1 = unsplit).
  std::int32_t segment_count(const Job& original) const;

  /// Build segment `index` (0-based) of `original` with the fresh id `id`,
  /// submitted at the original's submit time. Throws std::out_of_range for
  /// an invalid index.
  ///
  /// Runtime of segment k: min(max, runtime - k*max).
  /// WCL of segment k:     min(max, max(wcl - k*max, kMinSegmentWcl)), so
  /// under-estimating users still submit sane limits for trailing segments.
  Job make_segment(const Job& original, std::int32_t index, JobId id) const;

  static constexpr Time kMinSegmentWcl = minutes(10);

 private:
  Time max_runtime_;
};

}  // namespace psched
