// HybridSwitchFramework: the paper's proposed system (Figure 2), assembled.
//
//   hosts/generators --> ProcessingLogic --requests--> SchedulingLogic
//        ^                    | VOQs                        |
//        |                    |<-------- grants ------------|  (after
//        |                    v                             v   configuring)
//      deliveries <---- OCS circuits / EPS <---- SwitchingLogic
//
// The framework owns the simulator, fabrics and the three logic partitions,
// wires their callbacks, runs the experiment and aggregates a RunReport.
// The scheduling algorithm, demand estimator, circuit scheduler and timing
// model are pluggable — the "users implement novel design in the scheduling
// logic module" of §3.
//
// Run telemetry (stage timers, timeline sampling, sidecars) is owned by
// topo::FatTree, which drives every experiment point — a single switch is
// its one-rack case.  The framework only lends it attach_stage_timers()
// and the read-only timeline_snapshot().
#ifndef XDRS_CORE_FRAMEWORK_HPP
#define XDRS_CORE_FRAMEWORK_HPP

#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "schedulers/policy_registry.hpp"

#include "core/config.hpp"
#include "core/flow_tracker.hpp"
#include "core/policy_stack.hpp"
#include "core/processing_logic.hpp"
#include "core/scheduling_logic.hpp"
#include "core/switching_logic.hpp"
#include "net/classifier.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "switching/eps.hpp"
#include "switching/ocs.hpp"
#include "traffic/generators.hpp"

namespace xdrs::core {

class HybridSwitchFramework {
 public:
  explicit HybridSwitchFramework(FrameworkConfig cfg);

  /// Shares an external simulator (fat-tree mode: every ToR switch of a
  /// topology rides one event chain).  `shared` must outlive the framework;
  /// run() is then orchestrated by the topology through start_run() /
  /// begin_measurement() / finalize_run() instead of being called here.
  HybridSwitchFramework(sim::Simulator& shared, FrameworkConfig cfg);

  HybridSwitchFramework(const HybridSwitchFramework&) = delete;
  HybridSwitchFramework& operator=(const HybridSwitchFramework&) = delete;

  // ---- pluggable scheduling logic ----------------------------------------
  /// Installs the whole policy stack by spec, constructing every component
  /// through the PolicyRegistry with this switch's context (ports, seed,
  /// reconfiguration cost).  Only the kinds the discipline consumes
  /// (core::consumes: no circuit scheduler for kSlotted, no matcher for
  /// kHybridEpoch) are built — the stack's other specs may then name
  /// anything.  Throws std::invalid_argument on unknown specs.
  ///
  /// Bespoke (unregistered) policy objects can still be installed through
  /// scheduling().set_matcher() and friends; registering them instead makes
  /// them sweepable by name.
  void set_policies(const PolicyStack& stack);

  /// set_policies overload for the spec-string grammar, e.g.
  /// `set_policies("islip:4/instant/hw:500MHz")`.
  void set_policies(std::string_view stack_spec) { set_policies(PolicyStack::parse(stack_spec)); }

  /// Installs the default stack (PolicyStack{}): iSLIP(2) for kSlotted or
  /// Solstice for kHybridEpoch, instantaneous estimator, hardware timing.
  void use_default_policies() { set_policies(PolicyStack{}); }

  /// The registry context this framework constructs policies with.
  [[nodiscard]] schedulers::PolicyContext policy_context() const;

  // ---- workload -----------------------------------------------------------
  /// Applied to every packet a generator emits, before it is injected: the
  /// fat-tree placement stage retargets a locality-chosen fraction of flows
  /// at the uplink ports here.  A pure function of the packet (no simulator
  /// state), so placement is deterministic by construction.
  using IngressTransform = std::function<void(net::Packet&)>;

  /// Takes ownership; the generator starts when run() is called.  The
  /// optional transform rewrites this generator's packets at injection time
  /// (empty = inject as emitted, the single-switch path).
  void add_generator(std::unique_ptr<traffic::TrafficGenerator> g,
                     IngressTransform transform = {});

  /// Direct injection (integration tests / custom drivers).
  void inject(const net::Packet& p);

  /// Transit injection for packets arriving from another tier (fat-tree
  /// core links): ingests without offered-traffic accounting — the packet
  /// was already offered at its source rack.
  void reinject(const net::Packet& p);

  // ---- multi-rack hooks ---------------------------------------------------
  /// Delivery hook for cross-rack forwarding: a fabric delivery at port
  /// >= `first_uplink` is handed to `hook` (the fat-tree core tier) instead
  /// of being recorded as a final delivery.  Unset in single-switch runs.
  using UplinkHook = std::function<void(const net::Packet&, control::FabricPath)>;
  void set_uplink_hook(net::PortId first_uplink, UplinkHook hook);

  // ---- execution ----------------------------------------------------------
  /// Runs warmup (unmeasured) then `duration` (measured); returns the
  /// measured-window report.  One-shot: a framework instance runs once.
  /// Exactly start_run() + run_until(warmup) + begin_measurement() +
  /// run_until(horizon) + finalize_run(), so single- and multi-switch runs
  /// share one code path.
  RunReport run(sim::Time duration, sim::Time warmup = sim::Time::zero());

  // ---- phased execution (topology drivers) --------------------------------
  // A topology owning several frameworks on one shared simulator drives the
  // phases itself: start_run() on every switch, advance the shared clock to
  // the warmup boundary, begin_measurement() on every switch, advance to
  // the horizon, finalize_run() on every switch.  run() is these phases
  // over the framework's own simulator.
  /// Starts scheduling and the generators; events run until `warmup +
  /// duration` (the horizon).  One-shot, like run().
  void start_run(sim::Time duration, sim::Time warmup = sim::Time::zero());
  /// Snapshots baselines and opens the measured window.  Call with the
  /// simulator stopped just short of the warmup boundary (run() stops 1 ps
  /// early so boundary-stamped injections fall inside the window).
  void begin_measurement();
  /// Assembles and returns the measured-window report.  Call after the
  /// simulator reached the horizon.
  RunReport finalize_run();
  /// The run horizon (warmup + duration); valid after start_run().
  [[nodiscard]] sim::Time horizon() const noexcept { return horizon_; }

  /// One timeline-sampler tick's worth of switch state (the topology's
  /// telemetry); urgent backlog looks `urgent_horizon` ahead.  Read-only.
  [[nodiscard]] obs::TimelineSnapshot timeline_snapshot(sim::Time urgent_horizon) const;

  /// Attaches the scheduling/switching stage timers to `registry` (the
  /// owning topology's telemetry registry, shared by every tier).
  void attach_stage_timers(obs::Registry* registry);

  // ---- component access (tests, benches, examples) ------------------------
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] sim::TraceRecorder& trace() noexcept { return trace_; }
  [[nodiscard]] net::Classifier& classifier() noexcept { return classifier_; }
  [[nodiscard]] ProcessingLogic& processing() noexcept { return processing_; }
  [[nodiscard]] SchedulingLogic& scheduling() noexcept { return scheduling_; }
  [[nodiscard]] SwitchingLogic& switching() noexcept { return switching_; }
  [[nodiscard]] switching::OpticalCircuitSwitch& ocs() noexcept { return ocs_; }
  [[nodiscard]] switching::ElectricalPacketSwitch& eps() noexcept { return eps_; }
  [[nodiscard]] const FrameworkConfig& config() const noexcept { return cfg_; }

 private:
  HybridSwitchFramework(FrameworkConfig cfg, std::unique_ptr<sim::Simulator> owned,
                        sim::Simulator* shared);

  void wire();
  void on_deliver(const net::Packet& p, control::FabricPath via);

  FrameworkConfig cfg_;
  /// Owned in single-switch mode, null when sharing a topology simulator;
  /// sim_ is the one reference every component uses either way.
  std::unique_ptr<sim::Simulator> owned_sim_;
  sim::Simulator& sim_;
  sim::TraceRecorder trace_;
  net::Classifier classifier_;
  control::SyncModel sync_;
  switching::OpticalCircuitSwitch ocs_;
  switching::ElectricalPacketSwitch eps_;
  SwitchingLogic switching_;
  ProcessingLogic processing_;
  SchedulingLogic scheduling_;
  struct AttachedGenerator {
    std::unique_ptr<traffic::TrafficGenerator> g;
    IngressTransform transform;  ///< empty on the single-switch path
  };
  std::vector<AttachedGenerator> generators_;

  // Multi-rack forwarding (unset in single-switch runs).
  net::PortId first_uplink_{0};
  UplinkHook uplink_hook_;

  // Measurement state (active after warmup).
  bool measuring_{false};
  bool ran_{false};
  bool measurement_begun_{false};
  sim::Time duration_{};
  sim::Time horizon_{};
  sim::Time measure_start_{};
  RunReport report_;
  std::unordered_map<net::FlowId, stats::Rfc3550Jitter> flow_jitter_;
  FlowCompletionTracker completion_;

  // Snapshots taken at measurement start, to report deltas.
  struct Baseline {
    std::uint64_t voq_drops{0};
    std::uint64_t eps_drops{0};
    std::uint64_t sync_losses{0};
    std::uint64_t reconfig_cuts{0};
    std::uint64_t reconfigurations{0};
    sim::Time dark_time{};
    sim::Time ocs_busy{};
    std::uint64_t decisions{0};
    sim::Time decision_latency_total{};
    std::uint64_t uplink_drops{0};
  } base_;
};

/// Convenience: an OCS reconfiguration cost expressed in bytes at the
/// configured link rate — the quantity Solstice amortises against.
[[nodiscard]] std::int64_t reconfig_cost_bytes(const FrameworkConfig& cfg);

}  // namespace xdrs::core

#endif  // XDRS_CORE_FRAMEWORK_HPP
