// Per-run telemetry bundle: the stage-timer registry plus the timeline
// sampler, owned by topo::FatTree (which runs every experiment point) and
// switched on with FatTree::enable_telemetry().
//
// The hard invariant (CI-gated): telemetry NEVER perturbs results.  It
// writes sidecar documents only — nothing here feeds RunReport::to_json()
// or ScenarioSpec::identity_json(), so artefacts are byte-identical with
// telemetry on and off, and cache keys are oblivious to it.
#ifndef XDRS_OBS_TELEMETRY_HPP
#define XDRS_OBS_TELEMETRY_HPP

#include <string>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sim/time.hpp"

namespace xdrs::obs {

struct TelemetryConfig {
  /// Individual compute spans retained for Chrome-trace export (drop-newest
  /// past the bound).  0 = aggregate stage summaries only.
  std::size_t span_log_capacity{0};
};

/// The telemetry state of one run.
class RunTelemetry {
 public:
  explicit RunTelemetry(const TelemetryConfig& cfg) {
    registry_.enable();
    if (cfg.span_log_capacity > 0) registry_.reserve_span_log(cfg.span_log_capacity);
  }

  [[nodiscard]] Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const Registry& registry() const noexcept { return registry_; }
  [[nodiscard]] TimelineSampler& timeline() noexcept { return timeline_; }
  [[nodiscard]] const TimelineSampler& timeline() const noexcept { return timeline_; }

  /// The period the run sampled at (set by FatTree::run() when the
  /// measured window opens; recorded in the sidecar).
  void set_sample_period(sim::Time p) noexcept { sample_period_ = p; }
  [[nodiscard]] sim::Time sample_period() const noexcept { return sample_period_; }

 private:
  Registry registry_;
  TimelineSampler timeline_;
  sim::Time sample_period_{};
};

/// The per-point telemetry sidecar document: identity header (point key,
/// spec hash, scenario), per-stage wall-clock summaries (count, total,
/// Welford mean/stddev, extrema, p50/p99 from the log-bucketed histogram),
/// span-log accounting and the embedded timeline document.  Sidecar-only
/// by construction: callers write this next to — never into — the result
/// artefact.
[[nodiscard]] std::string telemetry_sidecar_json(const RunTelemetry& t, const std::string& key,
                                                 const std::string& spec_hash,
                                                 const std::string& scenario);

}  // namespace xdrs::obs

#endif  // XDRS_OBS_TELEMETRY_HPP
