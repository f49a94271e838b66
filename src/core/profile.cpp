#include "core/profile.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace psched {

namespace {
constexpr int kHintProbes = 2;  ///< forward probes before binary search
}  // namespace

Profile::Profile(NodeCount capacity, Time origin) : capacity_(capacity), origin_(origin) {
  if (capacity <= 0) throw std::invalid_argument("Profile: capacity must be positive");
  steps_.push_back({origin_, capacity_});
}

void Profile::reset(Time origin) {
  origin_ = origin;
  steps_.clear();
  steps_.push_back({origin_, capacity_});
  hint_ = 0;
  batch_depth_ = 0;
  batch_dirty_ = false;
}

void Profile::advance_origin(Time now) {
  if (now <= origin_) return;
  const std::size_t i = step_index(now);
  if (i > 0) steps_.erase(steps_.begin(), steps_.begin() + static_cast<std::ptrdiff_t>(i));
  steps_.front().at = now;
  origin_ = now;
  hint_ = 0;
}

std::size_t Profile::step_index(Time t) const {
  if (t < origin_) throw std::logic_error("Profile: time before origin");
  const std::size_t n = steps_.size();
  std::size_t i = hint_ < n ? hint_ : n - 1;
  const auto before = [](Time value, const Step& s) { return value < s.at; };
  if (steps_[i].at <= t) {
    // Monotone scans resolve within a few forward probes.
    for (int probe = 0; probe < kHintProbes; ++probe) {
      if (i + 1 >= n || steps_[i + 1].at > t) {
        hint_ = i;
        return i;
      }
      ++i;
    }
    const auto it = std::upper_bound(steps_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                                     steps_.end(), t, before);
    i = static_cast<std::size_t>(std::distance(steps_.begin(), it)) - 1;
  } else {
    const auto it =
        std::upper_bound(steps_.begin(), steps_.begin() + static_cast<std::ptrdiff_t>(i), t, before);
    i = static_cast<std::size_t>(std::distance(steps_.begin(), it)) - 1;
  }
  hint_ = i;
  return i;
}

std::size_t Profile::ensure_breakpoint(Time t) {
  const std::size_t i = step_index(t);
  if (steps_[i].at == t) return i;
  steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(i) + 1, {t, steps_[i].free});
  hint_ = i + 1;
  return i + 1;
}

void Profile::coalesce_range(std::size_t lo, std::size_t hi) {
  // The mutation changed free counts in [lo, hi); only the adjacency pairs
  // (i-1, i) for i in [lo, hi] can have become equal.
  if (lo < 1) lo = 1;
  const std::size_t end = std::min(hi + 1, steps_.size());
  if (lo >= end) return;
  std::size_t out = lo;
  for (std::size_t i = lo; i < end; ++i) {
    if (steps_[i].free == steps_[out - 1].free) continue;
    steps_[out++] = steps_[i];
  }
  if (out < end) {
    steps_.erase(steps_.begin() + static_cast<std::ptrdiff_t>(out),
                 steps_.begin() + static_cast<std::ptrdiff_t>(end));
    hint_ = out - 1;
  }
}

void Profile::coalesce_all() {
  std::size_t out = 1;
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    if (steps_[i].free == steps_[out - 1].free) continue;
    steps_[out++] = steps_[i];
  }
  if (out < steps_.size()) steps_.resize(out);
  hint_ = 0;
}

void Profile::begin_batch() { ++batch_depth_; }

void Profile::end_batch() {
  if (batch_depth_ <= 0) throw std::logic_error("Profile::end_batch without begin_batch");
  if (--batch_depth_ == 0 && batch_dirty_) {
    coalesce_all();
    batch_dirty_ = false;
  }
}

void Profile::add_usage(Time from, Time to, NodeCount nodes) {
  if (nodes < 0) throw std::invalid_argument("Profile::add_usage: negative nodes");
  if (nodes == 0 || from >= to) return;
  if (from < origin_) throw std::logic_error("Profile::add_usage: interval before origin");
  const std::size_t first = ensure_breakpoint(from);
  const std::size_t last = ensure_breakpoint(to);  // end marker keeps old free value
  // Validate the whole window before mutating so a failed add leaves the
  // free counts untouched (strong exception safety). The breakpoints the
  // validation may have inserted carry unchanged free counts; drop them
  // again so a failed call leaves no structural trace either.
  for (std::size_t i = first; i < last; ++i) {
    if (steps_[i].free < nodes) {
      const Time bad = steps_[i].at;
      if (batch_depth_ == 0)
        coalesce_range(first, last);
      else
        batch_dirty_ = true;  // end_batch sweeps the validation breakpoints
      throw std::logic_error("Profile::add_usage: over-reservation at t=" + std::to_string(bad));
    }
  }
  for (std::size_t i = first; i < last; ++i) steps_[i].free -= nodes;
  if (batch_depth_ == 0)
    coalesce_range(first, last);
  else
    batch_dirty_ = true;
}

void Profile::remove_usage(Time from, Time to, NodeCount nodes) {
  if (nodes < 0) throw std::invalid_argument("Profile::remove_usage: negative nodes");
  if (nodes == 0 || from >= to) return;
  if (from < origin_) throw std::logic_error("Profile::remove_usage: interval before origin");
  const std::size_t first = ensure_breakpoint(from);
  const std::size_t last = ensure_breakpoint(to);
  for (std::size_t i = first; i < last; ++i) {
    if (steps_[i].free + nodes > capacity_) {
      const Time bad = steps_[i].at;
      if (batch_depth_ == 0)
        coalesce_range(first, last);
      else
        batch_dirty_ = true;  // end_batch sweeps the validation breakpoints
      throw std::logic_error("Profile::remove_usage: exceeds capacity at t=" + std::to_string(bad));
    }
  }
  for (std::size_t i = first; i < last; ++i) steps_[i].free += nodes;
  if (batch_depth_ == 0)
    coalesce_range(first, last);
  else
    batch_dirty_ = true;
}

NodeCount Profile::free_at(Time t) const { return steps_[step_index(t)].free; }

bool Profile::fits_at(Time start, Time duration, NodeCount nodes) const {
  if (start < origin_) return false;
  if (nodes > capacity_) return false;
  if (duration <= 0 || nodes <= 0) return true;
  const Time end = start + duration;
  for (std::size_t k = step_index(start); k < steps_.size() && steps_[k].at < end; ++k) {
    if (steps_[k].free < nodes) return false;
  }
  return true;
}

Time Profile::earliest_fit(Time earliest, Time duration, NodeCount nodes) const {
  if (nodes > capacity_)
    throw std::invalid_argument("Profile::earliest_fit: job wider than machine");
  earliest = std::max(earliest, origin_);
  if (duration <= 0 || nodes <= 0) return earliest;

  // Single forward pass: maintain the start of the current feasible run of
  // steps; the first candidate whose run extends `duration` past it wins.
  // The tail step always has free == capacity >= nodes, so the scan always
  // terminates with a candidate.
  const std::size_t n = steps_.size();
  std::size_t i = step_index(earliest);
  bool open = steps_[i].free >= nodes;  // a feasible window is in progress
  Time candidate = earliest;
  for (;;) {
    if (open && (i + 1 >= n || steps_[i + 1].at >= candidate + duration)) return candidate;
    ++i;
    if (steps_[i].free >= nodes) {
      if (!open) {
        open = true;
        candidate = steps_[i].at;
      }
    } else {
      open = false;
    }
  }
}

void Profile::check_invariants() const {
  if (steps_.empty()) throw std::logic_error("Profile: empty step list");
  if (steps_.front().at != origin_) throw std::logic_error("Profile: first step not at origin");
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i].free < 0 || steps_[i].free > capacity_)
      throw std::logic_error("Profile: free count out of range");
    if (i > 0 && steps_[i - 1].at >= steps_[i].at)
      throw std::logic_error("Profile: steps not strictly increasing");
  }
  if (steps_.back().free != capacity_)
    throw std::logic_error("Profile: tail must return to full capacity");
}

std::string Profile::debug_string() const {
  std::ostringstream os;
  os << "Profile(cap=" << capacity_ << ")";
  for (const Step& s : steps_) os << " [" << s.at << ":" << s.free << "]";
  return os.str();
}

}  // namespace psched
