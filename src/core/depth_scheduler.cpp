#include "core/depth_scheduler.hpp"

#include <stdexcept>

namespace psched {

DepthScheduler::DepthScheduler(DepthConfig config) : config_(config) {
  if (config_.reservation_depth < 1)
    throw std::invalid_argument("DepthScheduler: reservation_depth must be >= 1");
}

std::string DepthScheduler::name() const {
  std::string n = "depth" + std::to_string(config_.reservation_depth);
  if (config_.priority == PriorityKind::Fcfs) n += ".fcfs";
  return n;
}

void DepthScheduler::collect_starts(std::vector<JobId>& starts) {
  const std::vector<JobId>& order = waiting_by_priority(config_.priority);
  wakeup_ = backfill(order, order.size(), config_.reservation_depth, starts);
}

}  // namespace psched
