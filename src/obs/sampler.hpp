// Periodic timeline sampling of switch state — the "transient effects that
// may not be visible under simulation" instrument, in exportable form.
//
// topo::FatTree drives one TimelineSampler on a fixed virtual-time period
// when telemetry is enabled: each tick folds every rack's VOQ occupancy
// (total and worst single queue), demand-matrix sparsity, circuit-vs-packet
// delivered bytes and the deadline-urgent backlog into bounded
// stats::TimeSeries (shape-preserving stride decimation, so arbitrarily
// long runs stay at fixed memory).  timeline_json() renders the whole set
// as the self-describing `timeline` sidecar document.
//
// Sampling is read-only against simulator state and rides its own event
// chain, so enabling it never perturbs results — RunReport artefacts stay
// byte-identical (CI-gated).
#ifndef XDRS_OBS_SAMPLER_HPP
#define XDRS_OBS_SAMPLER_HPP

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "stats/timeseries.hpp"

namespace xdrs::obs {

/// One tick's worth of switch state, gathered by the framework.
struct TimelineSnapshot {
  std::int64_t voq_total_bytes{0};     ///< whole-bank backlog
  std::int64_t voq_max_bytes{0};       ///< worst single VOQ
  std::uint64_t demand_nonzeros{0};    ///< nonzero pairs in the last demand estimate
  std::int64_t ocs_delivered_bytes{0}; ///< cumulative, measured window
  std::int64_t eps_delivered_bytes{0}; ///< cumulative, measured window
  std::uint64_t urgent_flows{0};       ///< open deadline flows due within the horizon
  std::int64_t urgent_bytes{0};        ///< their undelivered bytes
};

/// Samples kept per timeline series (and per fat-tree tier track) before
/// stride decimation sets in.
inline constexpr std::size_t kTimelineCapacity = 4096;

class TimelineSampler {
 public:
  /// `capacity` bounds every series (stride decimation beyond it).
  explicit TimelineSampler(std::size_t capacity = kTimelineCapacity);

  void record(sim::Time at, const TimelineSnapshot& s);

  [[nodiscard]] std::uint64_t samples_offered() const noexcept { return offered_; }

  [[nodiscard]] const stats::TimeSeries& voq_total_bytes() const noexcept { return voq_total_; }
  [[nodiscard]] const stats::TimeSeries& voq_max_bytes() const noexcept { return voq_max_; }
  [[nodiscard]] const stats::TimeSeries& demand_nonzeros() const noexcept { return demand_nz_; }
  [[nodiscard]] const stats::TimeSeries& ocs_delivered_bytes() const noexcept { return ocs_; }
  [[nodiscard]] const stats::TimeSeries& eps_delivered_bytes() const noexcept { return eps_; }
  [[nodiscard]] const stats::TimeSeries& urgent_flows() const noexcept { return urgent_flows_; }
  [[nodiscard]] const stats::TimeSeries& urgent_bytes() const noexcept { return urgent_bytes_; }

 private:
  std::uint64_t offered_{0};
  stats::TimeSeries voq_total_;
  stats::TimeSeries voq_max_;
  stats::TimeSeries demand_nz_;
  stats::TimeSeries ocs_;
  stats::TimeSeries eps_;
  stats::TimeSeries urgent_flows_;
  stats::TimeSeries urgent_bytes_;
};

/// Self-describing timeline document (the `timeline.json` sidecar schema):
/// sample period, offered count, then one entry per series with name, unit,
/// final decimation stride, peak over ALL offered samples and the kept
/// [t_us, value] pairs.  Deterministic for deterministic inputs.
[[nodiscard]] std::string timeline_json(const TimelineSampler& s, sim::Time sample_period);

}  // namespace xdrs::obs

#endif  // XDRS_OBS_SAMPLER_HPP
