// The discrete-event simulation engine.
//
// Substitutes for the paper's NetFPGA-SUME testbed: every component of the
// framework (hosts, VOQs, scheduler pipelines, optical switch
// reconfiguration) advances by scheduling callbacks on one of these engines.
// Single-threaded by design — determinism is worth more to a scheduling
// study than parallel speed, and each experiment instead parallelises across
// parameter points (exp::ExperimentRunner, see exp/runner.hpp).
#ifndef XDRS_SIM_SIMULATOR_HPP
#define XDRS_SIM_SIMULATOR_HPP

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace xdrs::sim {

/// Engine statistics, exposed for the scalability experiments (E10).
struct SimulatorStats {
  std::uint64_t events_executed{0};
  std::uint64_t events_scheduled{0};
  std::uint64_t events_cancelled{0};
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.  Monotonically non-decreasing.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `cb` to run `delay` from now.  Negative delays are clamped to
  /// zero (an event can never fire in the past).
  EventId schedule(Time delay, EventQueue::Callback cb);

  /// Schedules `cb` at an absolute timestamp, clamped to `now()`.
  EventId schedule_at(Time at, EventQueue::Callback cb);

  /// Cancels a pending event.  Returns true if it had not yet fired.
  bool cancel(EventId id);

  /// Runs until the event queue drains or `horizon` is reached, whichever is
  /// first.  Events stamped exactly at the horizon still execute.
  void run_until(Time horizon);

  /// Runs until the event queue drains.
  void run();

  /// Requests that the run loop stop after the current event returns.
  void stop() noexcept { stopping_ = true; }

  [[nodiscard]] const SimulatorStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }

 private:
  EventQueue queue_;
  Time now_{Time::zero()};
  bool stopping_{false};
  SimulatorStats stats_;
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_SIMULATOR_HPP
