#include "core/policy.hpp"

#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/conservative_scheduler.hpp"
#include "core/cplant_scheduler.hpp"
#include "core/depth_scheduler.hpp"
#include "core/fcfs_scheduler.hpp"

namespace psched {

std::string PolicyConfig::display_name() const {
  if (!name.empty()) return name;
  const std::string max_part = max_runtime == kNoTime
                                   ? "nomax"
                                   : std::to_string(max_runtime / hours(1)) + "max";
  switch (kind) {
    case PolicyKind::Fcfs:
      return priority == PriorityKind::Fcfs ? "fcfs" : "fcfs.fairshare";
    case PolicyKind::Easy:
      return priority == PriorityKind::Fcfs ? "easy" : "easy.fairshare";
    case PolicyKind::Depth: {
      std::string n = "depth" + std::to_string(reservation_depth);
      if (priority == PriorityKind::Fcfs) n += ".fcfs";
      return n + "." + max_part;
    }
    case PolicyKind::Cplant: {
      if (starvation_delay == kNoTime) return "noguarantee." + max_part;
      std::string n = "cplant" + std::to_string(starvation_delay / hours(1));
      n += "." + max_part;
      n += bar_heavy_users ? ".fair" : ".all";
      return n;
    }
    case PolicyKind::Conservative: {
      std::string n = "cons";
      if (priority == PriorityKind::Fcfs) n += ".fcfs";
      return n + "." + max_part;
    }
    case PolicyKind::ConservativeDynamic: {
      std::string n = "consdyn";
      if (priority == PriorityKind::Fcfs) n += ".fcfs";
      return n + "." + max_part;
    }
  }
  throw std::logic_error("PolicyConfig::display_name: unknown kind");
}

std::string PolicyConfig::canonical_key() const {
  std::ostringstream key;
  // hexfloat round-trips heavy_user_factor exactly; `name` feeds the result's
  // policy_name so it is part of the identity, and goes last because it is
  // the only free-form field (no separator can be forged after it).
  key << "kind=" << static_cast<int>(kind) << "|priority=" << static_cast<int>(priority)
      << "|starvation_delay=" << starvation_delay << "|bar_heavy_users=" << bar_heavy_users
      << "|heavy_user_factor=" << std::hexfloat << heavy_user_factor << std::defaultfloat
      << "|reservation_depth=" << reservation_depth << "|max_runtime=" << max_runtime
      << "|name=" << name;
  return key.str();
}

std::unique_ptr<Scheduler> make_scheduler(const PolicyConfig& config) {
  switch (config.kind) {
    case PolicyKind::Fcfs:
      return std::make_unique<FcfsScheduler>(config.priority);
    case PolicyKind::Easy:  // EASY is reservation depth 1
      return std::make_unique<DepthScheduler>(DepthConfig{config.priority, 1});
    case PolicyKind::Depth:
      return std::make_unique<DepthScheduler>(
          DepthConfig{config.priority, config.reservation_depth});
    case PolicyKind::ConservativeDynamic:  // every job replanned: unbounded depth
      return std::make_unique<DepthScheduler>(
          DepthConfig{config.priority, std::numeric_limits<int>::max()});
    case PolicyKind::Cplant: {
      CplantConfig c;
      c.priority = config.priority;
      c.starvation_delay = config.starvation_delay;
      c.bar_heavy_users = config.bar_heavy_users;
      c.heavy_user_factor = config.heavy_user_factor;
      return std::make_unique<CplantScheduler>(c);
    }
    case PolicyKind::Conservative:
      return std::make_unique<ConservativeScheduler>(config.priority);
  }
  throw std::invalid_argument("make_scheduler: unknown policy kind");
}

PolicyConfig paper_policy(PaperPolicy policy) {
  PolicyConfig c;  // defaults: Cplant, fairshare, 24 h, no bar, no max
  switch (policy) {
    case PaperPolicy::Cplant24NomaxAll:
      break;
    case PaperPolicy::Cplant72NomaxAll:
      c.starvation_delay = hours(72);
      break;
    case PaperPolicy::Cplant24NomaxFair:
      c.bar_heavy_users = true;
      break;
    case PaperPolicy::Cplant24MaxAll:
      c.max_runtime = hours(72);
      break;
    case PaperPolicy::Cplant72MaxFair:
      c.starvation_delay = hours(72);
      c.bar_heavy_users = true;
      c.max_runtime = hours(72);
      break;
    case PaperPolicy::ConsNomax:
      c.kind = PolicyKind::Conservative;
      break;
    case PaperPolicy::ConsMax:
      c.kind = PolicyKind::Conservative;
      c.max_runtime = hours(72);
      break;
    case PaperPolicy::ConsdynNomax:
      c.kind = PolicyKind::ConservativeDynamic;
      break;
    case PaperPolicy::ConsdynMax:
      c.kind = PolicyKind::ConservativeDynamic;
      c.max_runtime = hours(72);
      break;
  }
  c.name = c.display_name();
  return c;
}

std::optional<PolicyConfig> policy_from_name(const std::string& name) {
  for (const PolicyConfig& policy : all_paper_policies())
    if (policy.display_name() == name) return policy;
  PolicyConfig c;
  if (name == "fcfs") {
    c.kind = PolicyKind::Fcfs;
    c.priority = PriorityKind::Fcfs;
    return c;
  }
  if (name == "fcfs.fairshare") {
    c.kind = PolicyKind::Fcfs;
    return c;
  }
  if (name == "easy") {
    c.kind = PolicyKind::Easy;
    c.priority = PriorityKind::Fcfs;
    return c;
  }
  if (name == "easy.fairshare") {
    c.kind = PolicyKind::Easy;
    return c;
  }
  if (name == "noguarantee") {
    c.kind = PolicyKind::Cplant;
    c.starvation_delay = kNoTime;
    return c;
  }
  if (name == "cons.fcfs") {
    c.kind = PolicyKind::Conservative;
    c.priority = PriorityKind::Fcfs;
    return c;
  }
  if (name.rfind("depth", 0) == 0) {
    // Strict parse: "depth4junk" and out-of-range values are unknown names,
    // not depth 4 — spec files rely on hard rejection.
    int depth = 0;
    const char* first = name.c_str() + 5;
    const char* last = name.c_str() + name.size();
    const auto [end, err] = std::from_chars(first, last, depth);
    if (err == std::errc() && end == last && depth >= 1) {
      c.kind = PolicyKind::Depth;
      c.reservation_depth = depth;
      return c;
    }
  }
  return std::nullopt;
}

std::vector<PolicyConfig> minor_change_policies() {
  return {paper_policy(PaperPolicy::Cplant24NomaxAll), paper_policy(PaperPolicy::Cplant24NomaxFair),
          paper_policy(PaperPolicy::Cplant72NomaxAll), paper_policy(PaperPolicy::Cplant24MaxAll),
          paper_policy(PaperPolicy::Cplant72MaxFair)};
}

std::vector<PolicyConfig> all_paper_policies() {
  std::vector<PolicyConfig> all = minor_change_policies();
  all.push_back(paper_policy(PaperPolicy::ConsNomax));
  all.push_back(paper_policy(PaperPolicy::ConsdynNomax));
  all.push_back(paper_policy(PaperPolicy::ConsMax));
  all.push_back(paper_policy(PaperPolicy::ConsdynMax));
  return all;
}

}  // namespace psched
