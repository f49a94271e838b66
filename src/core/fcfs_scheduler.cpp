#include "core/fcfs_scheduler.hpp"

namespace psched {

FcfsScheduler::FcfsScheduler(PriorityKind priority) : priority_(priority) {}

std::string FcfsScheduler::name() const {
  return priority_ == PriorityKind::Fcfs ? "fcfs" : "fcfs.fairshare";
}

void FcfsScheduler::collect_starts(std::vector<JobId>& starts) {
  NodeCount free = ctx().free_nodes();
  for (const JobId id : waiting_by_priority(priority_)) {
    const Job& job = ctx().job(id);
    if (job.nodes > free) break;  // strict: the head blocks everyone behind it
    starts.push_back(id);
    free -= job.nodes;
  }
  dequeue(starts);
}

}  // namespace psched
