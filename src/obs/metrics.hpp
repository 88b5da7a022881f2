// Host-side (wall-clock) observability primitives: a lightweight registry of
// named stage timers and their span log, plus scoped monotonic-clock spans.
//
// The paper's testbed argument — transient effects invisible to end-of-run
// aggregates — cuts both ways: the *central decision loop's* wall-clock cost
// (estimator snapshot, matcher compute, circuit planning, OCS retune driving)
// decides whether centralized scheduling keeps up with line rate at all, and
// one coarse `wall_us` per sweep point cannot attribute it.  Every stage of
// SchedulingLogic/SwitchingLogic wraps its compute in a ScopedSpan; spans
// aggregate into per-stage Welford summaries + log-bucketed histograms and,
// when the span log is enabled, are kept individually for Chrome-trace
// export (obs/trace_export.hpp).
//
// Cost contract, CI-gated by `bench_matching_compute --alloc-check`: with
// the registry disabled (the default), a ScopedSpan is a null/enabled check
// — no clock read, no allocation, nothing recorded.  Timer *creation*
// (timer()) allocates and is meant for setup time only; hot paths hold
// pre-resolved pointers.  Virtual-time state (queue depths, delivered
// bytes) is not a registry metric: it lives in the timeline
// (obs/sampler.hpp) and the topology's tier series.
#ifndef XDRS_OBS_METRICS_HPP
#define XDRS_OBS_METRICS_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace xdrs::obs {

/// Aggregated duration metric: every recorded span folds into a Welford
/// summary (exact mean/stddev/extrema) and a log-bucketed histogram
/// (quantiles), both in nanoseconds, plus an exact running total.
class Timer {
 public:
  void record_ns(std::int64_t ns) {
    total_ns_ += ns;
    summary_.record(static_cast<double>(ns));
    histogram_.record(ns);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return summary_.count(); }
  [[nodiscard]] std::int64_t total_ns() const noexcept { return total_ns_; }
  [[nodiscard]] const stats::Summary& summary() const noexcept { return summary_; }
  [[nodiscard]] const stats::Histogram& histogram() const noexcept { return histogram_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Registry-assigned creation index; span-log entries refer to timers by
  /// this id so a span is 3 integers, not a string.
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  friend class Registry;
  Timer(std::string name, std::uint32_t id) : name_{std::move(name)}, id_{id} {}
  std::string name_;
  std::uint32_t id_;
  std::int64_t total_ns_{0};
  stats::Summary summary_;
  stats::Histogram histogram_;
};

/// One retained span, for trace export: which timer, when (host monotonic
/// clock, ns), how long.
struct Span {
  std::uint32_t timer_id{0};
  std::int64_t start_ns{0};
  std::int64_t dur_ns{0};
};

/// Named-timer registry for one run.  Disabled by default: spans check one
/// flag and bail.  Not thread-safe — each simulated switch is
/// single-threaded and owns its own registry (sweep workers never share).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void enable() noexcept { enabled_ = true; }
  void disable() noexcept { enabled_ = false; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Finds or creates the named timer.  References are stable for the
  /// registry's lifetime (timers are heap-held).  Setup-time only.
  [[nodiscard]] Timer& timer(std::string_view name);

  [[nodiscard]] const std::vector<std::unique_ptr<Timer>>& timers() const noexcept {
    return timers_;
  }
  /// Timer lookup by span id; nullptr when out of range.
  [[nodiscard]] const Timer* timer_by_id(std::uint32_t id) const noexcept {
    return id < timers_.size() ? timers_[id].get() : nullptr;
  }

  // ---- span log (individual spans, for trace export) ----------------------
  /// Retain up to `capacity` individual spans (drop-newest once full, counted
  /// by spans_dropped()).  Storage is reserved here, so recording never
  /// allocates.  0 disables the log (aggregation only).
  void reserve_span_log(std::size_t capacity);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t spans_dropped() const noexcept { return spans_dropped_; }

  /// Folds one finished span into its timer and, if the log is on, retains
  /// it.  Public so deterministic tests (and replayers) can inject spans
  /// with fixed timestamps; live code goes through ScopedSpan.
  void record_span(Timer& t, std::int64_t start_ns, std::int64_t dur_ns) {
    t.record_ns(dur_ns);
    if (span_capacity_ == 0) return;
    if (spans_.size() < span_capacity_) {
      spans_.push_back(Span{t.id(), start_ns, dur_ns});
    } else {
      ++spans_dropped_;
    }
  }

  /// Host monotonic clock in nanoseconds (steady_clock; epoch arbitrary —
  /// consumers normalise to the first span).
  [[nodiscard]] static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_{false};
  std::vector<std::unique_ptr<Timer>> timers_;
  std::vector<Span> spans_;
  std::size_t span_capacity_{0};
  std::uint64_t spans_dropped_{0};
};

/// RAII wall-clock span around one stage of the decision loop.  With a null
/// or disabled registry the constructor is a branch and the destructor a
/// null check — the telemetry-off hot path stays allocation- and
/// clock-read-free (CI-gated).
class ScopedSpan {
 public:
  ScopedSpan(Registry* reg, Timer* timer) noexcept
      : reg_{reg != nullptr && timer != nullptr && reg->enabled() ? reg : nullptr},
        timer_{timer} {
    if (reg_ != nullptr) start_ns_ = Registry::now_ns();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (reg_ == nullptr) return;
    reg_->record_span(*timer_, start_ns_, Registry::now_ns() - start_ns_);
  }

 private:
  Registry* reg_;
  Timer* timer_;
  std::int64_t start_ns_{0};
};

}  // namespace xdrs::obs

#endif  // XDRS_OBS_METRICS_HPP
