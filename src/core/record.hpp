#pragma once
// Simulation outputs: per-job records, the per-arrival snapshots consumed by
// the fair-start-time engines, and the whole-run result bundle. These are
// plain data, shared between the engine (producer) and the metrics layer
// (consumer).

#include <cstdint>
#include <string>
#include <vector>

#include "core/job.hpp"
#include "core/types.hpp"

namespace psched {

/// One scheduled job (possibly a runtime-limit segment) and its outcome.
struct JobRecord {
  Job job;
  Time start = kNoTime;
  Time finish = kNoTime;
  bool killed_at_wcl = false;  ///< finish truncated by WCL enforcement

  bool completed() const { return finish != kNoTime; }
  Time wait() const { return start - job.submit; }
  Time turnaround() const { return finish - job.submit; }
  Time executed_runtime() const { return finish - start; }
};

/// A running job as seen at some snapshot instant.
struct SnapshotRunning {
  NodeCount nodes = 0;
  Time remaining = 0;      ///< actual remaining runtime (perfect knowledge)
  Time est_remaining = 0;  ///< WCL-based remaining (the scheduler's knowledge)
};

/// A waiting job as seen at some snapshot instant.
struct SnapshotWaiting {
  JobId id = kInvalidJob;
  NodeCount nodes = 0;
  Time runtime = 0;      ///< actual runtime (perfect knowledge)
  Time wcl = 0;          ///< wall clock limit (the scheduler's knowledge)
  Time submit = 0;
  double priority = 0.0;  ///< fairshare usage of the owner (lower goes first)
};

/// System state captured at one job's arrival: the input of the paper's
/// hybrid FST metric (section 4.1).
struct ArrivalSnapshot {
  JobId id = kInvalidJob;
  Time at = kNoTime;
  std::vector<SnapshotRunning> running;
  /// The waiting jobs strictly ahead of the arriving job in fairshare order
  /// (ascending `priority`, then `submit`, then `id`), in that order, then
  /// the arriving job itself as the last entry. Jobs behind it are left out:
  /// the FST list schedule ends where the arriving job is placed, so they
  /// could not change its start.
  std::vector<SnapshotWaiting> waiting;
};

/// Everything one policy run produces.
struct SimulationResult {
  std::string policy_name;
  NodeCount system_size = 0;

  /// Index == record id. With maximum-runtime limits there are more records
  /// than original jobs (one per segment).
  std::vector<JobRecord> records;

  /// Index == record id; empty when snapshot recording is disabled.
  std::vector<ArrivalSnapshot> snapshots;

  /// segments_of_original[original job id] -> record ids, in segment order.
  std::vector<std::vector<JobId>> segments_of_original;
  std::size_t original_job_count = 0;

  Time first_start = kNoTime;   ///< MinStartTime of Eq. 3
  Time last_finish = kNoTime;   ///< MaxCompletionTime of Eq. 3
  double busy_proc_seconds = 0.0;  ///< integral of running processors
  /// Integral of min(queued demand, idle processors) — Eq. 4 numerator.
  double loc_proc_seconds = 0.0;

  /// Deterministic run-shape counts (events consumed, collect_starts
  /// batches), maintained by the engine for per-cell breakdowns. Not a
  /// metric: never serialized into a results store.
  std::uint64_t events_delivered = 0;
  std::uint64_t scheduler_invocations = 0;

  Time makespan() const {
    return (first_start == kNoTime || last_finish == kNoTime) ? 0 : last_finish - first_start;
  }
};

}  // namespace psched
