#include "obs/obs.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

#include "obs/clock.hpp"
#include "util/atomic_file.hpp"

namespace psched::obs {

namespace {

/// Catalog metadata, in Counter order. The split is the contract: a counter
/// is `deterministic` only if its total is provably independent of how cells
/// landed on lanes (see obs.hpp); everything else is honest about being a
/// scheduling artifact. docs/observability.md carries the prose catalog.
struct CounterInfo {
  const char* name;
  bool deterministic;
};

constexpr CounterInfo kCounterInfo[kCounterCount] = {
    {"engine.events_delivered", true},
    {"engine.scheduler_invocations", true},
    {"engine.snapshot_entries", true},
    {"scheduler.replan_full", true},
    {"scheduler.replan_incremental", true},
    {"scheduler.queue_sorts", true},
    {"profile.gap_index.probes", true},
    {"profile.gap_index.skips", true},
    {"fst.forks", true},
    {"fst.forks_drained", true},
    {"fst.resolved_from_master", true},
    {"experiment.cache_misses", true},
    {"journal.appends", true},
    {"store.atomic_writes", true},
    {"experiment.cache_hits", false},
    {"experiment.single_flight_waits", false},
    {"pool.tasks_leaf", false},
    {"pool.tasks_compound", false},
    {"pool.queue_depth_high_water", false},
    {"fst.peak_batch_bytes", false},
    {"retry.reissues", false},
};

/// One recorded complete event. `name` is always a static string literal
/// (span constructors take const char*), so storing the pointer is safe.
struct SpanEvent {
  const char* name;
  std::string arg;
  std::uint64_t start_us;
  std::uint64_t dur_us;
};

/// Per-thread span sink. The mutex is per-buffer and only ever contended by
/// an export racing the owning thread, so armed pushes stay O(1) and
/// disarmed code never gets here at all.
struct ThreadBuf {
  explicit ThreadBuf(int tid_in) : tid(tid_in) {}
  std::mutex mu;
  int tid;
  std::vector<SpanEvent> events;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuf>> buffers;
  std::string exit_path;
  bool exit_hook_registered = false;
};

Registry& registry() {
  static Registry reg;
  return reg;
}

thread_local ThreadBuf* t_buffer = nullptr;

ThreadBuf& local_buffer() {
  if (t_buffer == nullptr) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.push_back(std::make_unique<ThreadBuf>(static_cast<int>(reg.buffers.size()) + 1));
    t_buffer = reg.buffers.back().get();
  }
  return *t_buffer;
}

void json_escape_into(std::string& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void write_counters_object(std::ostream& out, const char* indent) {
  const std::vector<CounterValue> snapshot = counters_snapshot();
  for (const bool deterministic : {true, false}) {
    out << indent << '"' << (deterministic ? "deterministic" : "scheduling") << "\": {";
    bool first = true;
    for (const CounterValue& counter : snapshot) {
      if (counter.deterministic != deterministic) continue;
      out << (first ? "" : ", ") << '"' << counter.name << "\": " << counter.value;
      first = false;
    }
    out << '}' << (deterministic ? ",\n" : "\n");
  }
}

void write_exit_trace() {
  std::string path;
  {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    path = reg.exit_path;
  }
  if (!path.empty()) write_trace_file(path);
}

struct EnvInit {
  EnvInit() {
    // psched-lint note: this constructor is the one sanctioned reader of the
    // PSCHED_TRACE environment (rule raw-trace-env) — read once at static
    // init so every instrumentation point sees one consistent arming view.
    const char* value = std::getenv("PSCHED_TRACE");
    if (value == nullptr || *value == '\0') return;
    arm();
    const std::string text(value);
    // "1"/"on" arm without an exit file (counters + breakdowns only).
    if (text != "1" && text != "on") set_exit_trace_path(text);
  }
};

EnvInit g_env_init;

}  // namespace

namespace detail {

std::atomic<bool> g_armed{false};
std::array<std::atomic<std::uint64_t>, kCounterCount> g_counters{};

}  // namespace detail

void Span::begin(const char* name) {
  active_ = true;
  name_ = name;
  start_us_ = now_us();
}

void Span::end() {
  const std::uint64_t end_us = now_us();
  ThreadBuf& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back({name_, std::move(arg_), start_us_, end_us - start_us_});
}

void arm() { detail::g_armed.store(true, std::memory_order_relaxed); }

void reset() {
  detail::g_armed.store(false, std::memory_order_relaxed);
  for (std::atomic<std::uint64_t>& counter : detail::g_counters)
    counter.store(0, std::memory_order_relaxed);
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const std::unique_ptr<ThreadBuf>& buffer : reg.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
}

void set_exit_trace_path(const std::string& path) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.exit_path = path;
  if (!path.empty() && !reg.exit_hook_registered) {
    reg.exit_hook_registered = true;
    std::atexit(write_exit_trace);
  }
}

std::vector<CounterValue> counters_snapshot() {
  std::vector<CounterValue> out;
  out.reserve(kCounterCount);
  for (std::size_t i = 0; i < kCounterCount; ++i)
    out.push_back({kCounterInfo[i].name, detail::g_counters[i].load(std::memory_order_relaxed),
                   kCounterInfo[i].deterministic});
  return out;
}

std::uint64_t counter_value(Counter counter) {
  return detail::g_counters[static_cast<std::size_t>(counter)].load(std::memory_order_relaxed);
}

void write_trace_json(std::ostream& out) {
  // Snapshot every buffer up front so the writer below (which may itself be
  // instrumented, e.g. atomic_write_file's store-write span) cannot deadlock
  // or observe its own events.
  struct Snapshot {
    int tid;
    std::vector<SpanEvent> events;
  };
  std::vector<Snapshot> snapshots;
  {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    snapshots.reserve(reg.buffers.size());
    for (const std::unique_ptr<ThreadBuf>& buffer : reg.buffers) {
      const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      snapshots.push_back({buffer->tid, buffer->events});
    }
  }

  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Snapshot& snapshot : snapshots) {
    for (const SpanEvent& event : snapshot.events) {
      out << (first ? "" : ",\n");
      first = false;
      out << "  {\"name\": \"" << event.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
          << snapshot.tid << ", \"ts\": " << event.start_us << ", \"dur\": " << event.dur_us;
      if (!event.arg.empty()) {
        std::string escaped;
        json_escape_into(escaped, event.arg);
        out << ", \"args\": {\"arg\": \"" << escaped << "\"}";
      }
      out << '}';
    }
  }
  out << "\n],\n\"displayTimeUnit\": \"ms\",\n\"counters\": {\n";
  write_counters_object(out, "  ");
  out << "}}\n";
}

void write_counters_json(std::ostream& out) {
  out << "{\n";
  write_counters_object(out, "  ");
  out << "}\n";
}

bool write_trace_file(const std::string& path) {
  std::ostringstream body;
  write_trace_json(body);
  try {
    util::atomic_write_file(path, body.str());
  } catch (const std::exception& error) {
    // Diagnostics are best-effort: the results store is already durable by
    // the time a trace is exported, so report and carry on.
    std::fprintf(stderr, "psched: trace export to %s failed: %s\n", path.c_str(), error.what());
    return false;
  }
  return true;
}

}  // namespace psched::obs
