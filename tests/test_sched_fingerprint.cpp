// Schedule fingerprints: pins the exact schedule of every policy. Each digest
// is FNV-1a over every record's (start, finish) for one policy and one
// priority order, across a matrix of generated seeds, WCL enforcement modes
// and maximum-runtime limits. A refactor of the policy plumbing must leave
// every digest unchanged; a deliberate behavior change updates the table and
// records the before/after numbers in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "util/hash.hpp"

namespace psched {
namespace {

PolicyConfig named(const std::string& name) {
  const std::optional<PolicyConfig> policy = policy_from_name(name);
  if (!policy) throw std::invalid_argument("unknown policy " + name);
  return *policy;
}

PolicyConfig cplant(Time delay, bool bar) {
  PolicyConfig c;
  c.kind = PolicyKind::Cplant;
  c.starvation_delay = hours(delay);
  c.bar_heavy_users = bar;
  return c;
}

struct Pin {
  const char* label;
  PolicyConfig policy;
  std::uint64_t fcfs;       ///< digest under PriorityKind::Fcfs
  std::uint64_t fairshare;  ///< digest under PriorityKind::Fairshare
};

std::uint64_t fingerprint(PolicyConfig policy, PriorityKind priority,
                          const std::vector<Workload>& workloads) {
  util::Fnv1a hash;
  policy.priority = priority;
  for (const Workload& w : workloads) {
    for (const sim::WclEnforcement mode :
         {sim::WclEnforcement::Never, sim::WclEnforcement::KillIfNeeded,
          sim::WclEnforcement::Always}) {
      for (const Time max_runtime : {kNoTime, hours(72)}) {
        sim::EngineConfig config;
        config.policy = policy;
        config.policy.max_runtime = max_runtime;
        config.wcl_enforcement = mode;
        config.record_snapshots = false;
        const SimulationResult r = sim::simulate(w, config);
        hash.mix(r.records.size());
        for (const JobRecord& record : r.records) {
          hash.mix(record.start);
          hash.mix(record.finish);
        }
      }
    }
  }
  return hash.digest();
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

void expect_pinned(const std::vector<Pin>& pins) {
  std::vector<Workload> workloads;
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u})
    workloads.push_back(test::stress_workload(seed));
  for (const Pin& pin : pins) {
    EXPECT_EQ(hex(fingerprint(pin.policy, PriorityKind::Fcfs, workloads)), hex(pin.fcfs))
        << pin.label << " (fcfs priority)";
    EXPECT_EQ(hex(fingerprint(pin.policy, PriorityKind::Fairshare, workloads)),
              hex(pin.fairshare))
        << pin.label << " (fairshare priority)";
  }
}

TEST(ScheduleFingerprint, NonConservativePoliciesArePinned) {
  expect_pinned({
      {"fcfs", named("fcfs"), 0xe1e6f46264fff6ccull, 0xfb3c55f4a207069dull},
      {"easy", named("easy"), 0xee04483131bfe190ull, 0x5e50b07c77b034fdull},
      {"depth1", named("depth1"), 0xee04483131bfe190ull, 0x5e50b07c77b034fdull},
      {"depth4", named("depth4"), 0xff3cae511355564aull, 0x8c4162c7f0bfc3f1ull},
      {"noguarantee", named("noguarantee"), 0x68adf434fd4eba91ull, 0xbf8a8d13306e1b90ull},
      {"cplant24.all", cplant(24, false), 0x7598ff0d19cb48ffull, 0x977d05483992f6c1ull},
      {"cplant24.fair", cplant(24, true), 0xf06f2f5e29313b44ull, 0xca608d5a6e35e8beull},
      {"cplant72.all", cplant(72, false), 0xddf3b3269409ff9dull, 0xa7028d0f176253ecull},
      {"cplant72.fair", cplant(72, true), 0x287bb9188fb6a030ull, 0x10664feedffa4efull},
  });
}

TEST(ScheduleFingerprint, ConservativePoliciesArePinned) {
  // The fcfs column is cons.fcfs / consdyn.fcfs, the fairshare column cons /
  // consdyn; the matrix's max axis covers the .nomax and .72max spellings.
  expect_pinned({
      {"cons", named("cons.nomax"), 0x3029f4e779a7d9dull, 0xf0b535b3ad9597b8ull},
      {"consdyn", named("consdyn.nomax"), 0x71ff5b1dcfb88562ull, 0xb7ab9c5b42c4f5d5ull},
  });
}

}  // namespace
}  // namespace psched
