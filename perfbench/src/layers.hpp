// Layer measurement from outside the simulator: spans recorded around calls
// into the library's public API, policy decorators installed through the
// PolicyRegistry, and isolated drives that time one layer's public
// functions alone (event queue, generators, classifier, VOQs, cache).
// Nothing here reaches into src/; tracing inside the program is separate
// work.
#ifndef XDRS_PERFBENCH_LAYERS_HPP
#define XDRS_PERFBENCH_LAYERS_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "exp/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed interval.  `parent` indexes the enclosing span (-1: root).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
};

/// Spans kept in memory and written out once, when the run ends.
class SpanLog {
 public:
  SpanLog() : origin_{Clock::now()} {}

  /// Opens a span under `parent` and returns its id.
  std::int32_t open(const char* name, std::int32_t parent);
  void close(std::int32_t id);
  /// Records an already-finished interval.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::int32_t parent);

  [[nodiscard]] double seconds(std::int32_t id) const;
  /// {"spans":[{"name":..,"start_ns":..,"end_ns":..,"parent":..},...]}
  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Count and total host time of one kind of call.
struct CallTotals {
  std::uint64_t calls{0};
  std::int64_t ns{0};

  void add(Clock::time_point a, Clock::time_point b) {
    ++calls;
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  }
  [[nodiscard]] double seconds() const { return static_cast<double>(ns) * 1e-9; }
};

/// What the policy decorators record.  Decisions (matcher, circuit,
/// estimator snapshot) become spans under `parent`; per-packet estimator
/// updates are only counted and timed in aggregate.
struct Probe {
  explicit Probe(SpanLog& l) : log{l} {}

  SpanLog& log;
  std::int32_t parent{-1};
  CallTotals matcher, circuit, snapshot, arrivals, departures, deadlines;

  /// Host seconds the decorators measured inside the run phase.
  [[nodiscard]] double child_seconds() const;
};

/// Replaces the framework's estimator and its matcher (slotted) or circuit
/// scheduler (hybrid-epoch) with timing decorators around fresh policies
/// that PolicyRegistry builds from `stack` with the framework's own
/// context — the objects set_policies() installed, so results do not move.
void install_decorators(xdrs::core::HybridSwitchFramework& fw,
                        const xdrs::core::PolicyStack& stack, Probe& probe);

/// Host nanoseconds per push + pop on an sim::EventQueue held at `depth`
/// live events, callbacks the size of two pointers.
[[nodiscard]] double event_queue_ns(std::size_t depth);

/// The generators of a spec's workloads, driven alone on a bare simulator
/// to the spec's horizon with a counting sink.
struct TrafficDrive {
  std::uint64_t packets{0};         ///< every packet emitted
  std::uint64_t window_packets{0};  ///< born at or after the warm-up boundary
  std::uint64_t events{0};          ///< simulator events the generators cost
  double seconds{0.0};              ///< host time of the drive
  std::vector<xdrs::net::Packet> sample;  ///< the first packets, for replays
};
[[nodiscard]] TrafficDrive drive_traffic(const xdrs::exp::ScenarioSpec& spec,
                                         std::size_t sample_cap);

/// Host ns per Classifier::classify over `packets`, with no rules installed
/// (as in every workload here) and the framework's fallback verdict.
[[nodiscard]] double classify_ns(const std::vector<xdrs::net::Packet>& packets);

/// Host ns per VoqBank enqueue or dequeue: `packets` replayed into a
/// standalone ports x ports bank, then drained in arrival order.
[[nodiscard]] double voq_ns_per_op(const std::vector<xdrs::net::Packet>& packets,
                                   std::uint32_t ports);

/// Host milliseconds per ResultCache::store into a fresh directory `dir`
/// (removed afterwards), one store per report.
[[nodiscard]] double cache_store_ms(const std::vector<xdrs::exp::ScenarioSpec>& specs,
                                    const std::vector<xdrs::core::RunReport>& reports,
                                    const std::string& dir);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench

#endif  // XDRS_PERFBENCH_LAYERS_HPP
