#include "obs/metrics.hpp"

namespace xdrs::obs {

Timer& Registry::timer(std::string_view name) {
  // Linear find-by-name: a registry holds a handful of timers and lookups
  // happen at setup time, so a map would buy nothing.
  for (const auto& t : timers_) {
    if (t->name() == name) return *t;
  }
  timers_.emplace_back(new Timer{std::string{name}, static_cast<std::uint32_t>(timers_.size())});
  return *timers_.back();
}

void Registry::reserve_span_log(std::size_t capacity) {
  span_capacity_ = capacity;
  spans_.reserve(capacity);
}

}  // namespace xdrs::obs
