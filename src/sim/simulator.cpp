#include "sim/simulator.hpp"

#include <utility>

namespace xdrs::sim {

EventId Simulator::schedule(Time delay, EventQueue::Callback cb) {
  if (delay.is_negative()) delay = Time::zero();
  ++stats_.events_scheduled;
  return queue_.push(now_ + delay, std::move(cb));
}

EventId Simulator::schedule_at(Time at, EventQueue::Callback cb) {
  if (at < now_) at = now_;
  ++stats_.events_scheduled;
  return queue_.push(at, std::move(cb));
}

bool Simulator::cancel(EventId id) {
  const bool was_pending = queue_.cancel(id);
  if (was_pending) ++stats_.events_cancelled;
  return was_pending;
}

void Simulator::run_until(Time horizon) {
  stopping_ = false;
  while (!stopping_ && !queue_.empty() && queue_.next_time() <= horizon) {
    ++stats_.events_executed;
    queue_.run_next(now_);
  }
  // Advance the clock to the horizon even if the queue drained early, so a
  // subsequent run_until continues from a consistent epoch.
  if (!stopping_ && now_ < horizon) now_ = horizon;
}

void Simulator::run() {
  stopping_ = false;
  while (!stopping_ && !queue_.empty()) {
    ++stats_.events_executed;
    queue_.run_next(now_);
  }
}

}  // namespace xdrs::sim
