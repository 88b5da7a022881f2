#include "core/framework.hpp"

#include <algorithm>
#include <stdexcept>

namespace xdrs::core {

std::int64_t reconfig_cost_bytes(const FrameworkConfig& cfg) {
  return cfg.link_rate.bytes_in(cfg.ocs_reconfig);
}

HybridSwitchFramework::HybridSwitchFramework(FrameworkConfig cfg)
    : HybridSwitchFramework{cfg, std::make_unique<sim::Simulator>(), nullptr} {}

HybridSwitchFramework::HybridSwitchFramework(sim::Simulator& shared, FrameworkConfig cfg)
    : HybridSwitchFramework{cfg, nullptr, &shared} {}

HybridSwitchFramework::HybridSwitchFramework(FrameworkConfig cfg,
                                             std::unique_ptr<sim::Simulator> owned,
                                             sim::Simulator* shared)
    : cfg_{cfg},
      owned_sim_{std::move(owned)},
      sim_{owned_sim_ ? *owned_sim_ : *shared},
      classifier_{},
      sync_{cfg.ports, cfg.sync},
      ocs_{sim_,
           switching::OcsConfig{cfg.ports, cfg.link_rate, cfg.ocs_reconfig,
                                cfg.placement == BufferPlacement::kHost
                                    ? cfg.ocs_fabric_latency + cfg.link_latency
                                    : cfg.ocs_fabric_latency,
                                cfg.ocs_failure_prob, cfg.seed ^ 0xfa17ed}},
      eps_{sim_, switching::EpsConfig{cfg.ports, cfg.eps_rate, cfg.eps_latency,
                                      cfg.eps_buffer_bytes, cfg.eps_strict_priority}},
      switching_{sim_, ocs_, trace_},
      processing_{sim_, cfg_, classifier_, ocs_, eps_, sync_, trace_},
      scheduling_{sim_, cfg_, switching_, trace_} {
  if (cfg.ports < 2) throw std::invalid_argument{"Framework: need >= 2 ports"};
  wire();
}

void HybridSwitchFramework::wire() {
  // Processing -> scheduling: requests and demand-estimator events.  All
  // control-path latency is owned by the timing model (E2), so the wiring
  // itself is immediate.
  processing_.set_request_callback(
      [this](const control::SchedulingRequest& r) { scheduling_.on_request(r); });
  processing_.set_arrival_callback(
      [this](net::PortId s, net::PortId d, std::int64_t b, sim::Time at) {
        scheduling_.on_arrival(s, d, b, at);
      });
  processing_.set_departure_callback(
      [this](net::PortId s, net::PortId d, std::int64_t b, sim::Time at) {
        scheduling_.on_departure(s, d, b, at);
      });
  processing_.set_deadline_callback(
      [this](net::PortId s, net::PortId d, sim::Time deadline, sim::Time at) {
        scheduling_.on_deadline(s, d, deadline, at);
      });

  // Scheduling -> processing: grants (after the switching logic has
  // configured circuits; SchedulingLogic enforces the ordering).
  scheduling_.set_grant_callback(
      [this](const control::GrantSet& gs) { processing_.handle_grants(gs); });

  // Fabric deliveries -> measurement.
  ocs_.set_deliver_callback([this](const net::Packet& p, net::PortId) {
    on_deliver(p, control::FabricPath::kOcs);
  });
  eps_.set_deliver_callback([this](const net::Packet& p, net::PortId) {
    on_deliver(p, control::FabricPath::kEps);
  });
}

schedulers::PolicyContext HybridSwitchFramework::policy_context() const {
  schedulers::PolicyContext ctx;
  ctx.ports = cfg_.ports;
  ctx.seed = cfg_.seed;
  ctx.reconfig_cost_bytes = reconfig_cost_bytes(cfg_);
  return ctx;
}

void HybridSwitchFramework::set_policies(const PolicyStack& stack) {
  const auto& registry = schedulers::PolicyRegistry::instance();
  const schedulers::PolicyContext ctx = policy_context();
  const SchedulingDiscipline d = cfg_.discipline;
  using schedulers::PolicyKind;
  if (consumes(d, PolicyKind::kEstimator)) {
    scheduling_.set_estimator(registry.make_estimator(stack.estimator, ctx));
  }
  if (consumes(d, PolicyKind::kTiming)) {
    scheduling_.set_timing_model(registry.make_timing(stack.timing, ctx));
  }
  if (consumes(d, PolicyKind::kMatcher)) {
    scheduling_.set_matcher(registry.make_matcher(stack.matcher, ctx));
  }
  if (consumes(d, PolicyKind::kCircuit)) {
    scheduling_.set_circuit_scheduler(registry.make_circuit(stack.circuit, ctx));
  }
}

void HybridSwitchFramework::attach_stage_timers(obs::Registry* registry) {
  scheduling_.set_stage_timers(registry);
  switching_.set_stage_timers(registry);
}

obs::TimelineSnapshot HybridSwitchFramework::timeline_snapshot(sim::Time urgent_horizon) const {
  obs::TimelineSnapshot s;
  s.voq_total_bytes = processing_.voqs().total_bytes();
  s.voq_max_bytes = processing_.voqs().max_voq_bytes();
  s.demand_nonzeros = scheduling_.demand().nonzero_count();
  // Cumulative delivered bytes of the measured window (0 during warmup);
  // reading the report is safe because the sampler never writes it.
  s.ocs_delivered_bytes = report_.ocs_bytes;
  s.eps_delivered_bytes = report_.eps_bytes;
  const FlowCompletionTracker::UrgentBacklog urgent =
      completion_.urgent_backlog(sim_.now(), urgent_horizon);
  s.urgent_flows = urgent.flows;
  s.urgent_bytes = urgent.bytes;
  return s;
}

void HybridSwitchFramework::add_generator(std::unique_ptr<traffic::TrafficGenerator> g,
                                          IngressTransform transform) {
  if (!g) throw std::invalid_argument{"Framework: null generator"};
  generators_.push_back(AttachedGenerator{std::move(g), std::move(transform)});
}

void HybridSwitchFramework::set_uplink_hook(net::PortId first_uplink, UplinkHook hook) {
  if (ran_) throw std::logic_error{"Framework: set_uplink_hook() must precede run()"};
  first_uplink_ = first_uplink;
  uplink_hook_ = std::move(hook);
}

void HybridSwitchFramework::inject(const net::Packet& p) {
  if (measuring_) {
    ++report_.offered_packets;
    report_.offered_bytes += p.size_bytes;
  }
  processing_.ingest(p);
}

void HybridSwitchFramework::reinject(const net::Packet& p) {
  // No offered accounting: the packet was offered once, at its source rack.
  processing_.ingest(p);
}

void HybridSwitchFramework::on_deliver(const net::Packet& p, control::FabricPath via) {
  // A delivery at an uplink port is a transit hop, not an arrival: hand it
  // to the core tier before any completion/measurement accounting — the
  // destination rack records the final delivery.
  if (uplink_hook_ && p.dst >= first_uplink_) {
    uplink_hook_(p, via);
    return;
  }
  // The completion tracker sees every delivery, warmup included, so flows
  // straddling the measurement boundary are recognised and then excluded at
  // finalize (their early packets were never measured).
  completion_.on_deliver(p, sim_.now());
  if (!measuring_) return;
  report_.serviced_bytes += p.size_bytes;
  // Only packets born inside the measurement window count further, so
  // that delivered <= offered holds exactly (warmup stragglers excluded).
  if (p.created_at < measure_start_) return;
  ++report_.delivered_packets;
  report_.delivered_bytes += p.size_bytes;
  if (via == control::FabricPath::kOcs) {
    report_.ocs_bytes += p.size_bytes;
  } else {
    report_.eps_bytes += p.size_bytes;
  }
  report_.class_bytes[static_cast<std::size_t>(p.tclass)] += p.size_bytes;
  (p.remote ? report_.cross_rack_bytes : report_.intra_rack_bytes) += p.size_bytes;
  const sim::Time latency = sim_.now() - p.created_at;
  report_.latency.record_time(latency);
  if (p.tclass == net::TrafficClass::kLatencySensitive) {
    report_.latency_sensitive.record_time(latency);
    flow_jitter_[p.flow].record(p.created_at, sim_.now());
  }
  trace_.record(sim_.now(), sim::TraceCategory::kDeliver, p.src, p.dst);
}

void HybridSwitchFramework::start_run(sim::Time duration, sim::Time warmup) {
  if (ran_) throw std::logic_error{"Framework: run() is one-shot per instance"};
  ran_ = true;
  if (duration <= sim::Time::zero()) {
    throw std::invalid_argument{"Framework: duration must be positive"};
  }
  duration_ = duration;
  measure_start_ = warmup;
  horizon_ = warmup + duration;

  scheduling_.start();
  for (auto& e : generators_) {
    if (e.transform) {
      // Copy-rewrite-inject: the placement stage never mutates the
      // generator's own packet (generators may reuse buffers).
      e.g->start(
          sim_,
          [this, t = e.transform](const net::Packet& p) {
            net::Packet q = p;
            t(q);
            inject(q);
          },
          horizon_);
    } else {
      e.g->start(sim_, [this](const net::Packet& p) { inject(p); }, horizon_);
    }
  }
}

void HybridSwitchFramework::begin_measurement() {
  if (!ran_) throw std::logic_error{"Framework: begin_measurement() before start_run()"};
  if (measurement_begun_) throw std::logic_error{"Framework: begin_measurement() is one-shot"};
  measurement_begun_ = true;

  // Measurement window begins: reset high-water marks and snapshot the
  // monotonic counters so the report shows deltas.
  processing_.voqs().reset_peaks();
  base_.voq_drops = processing_.voqs().stats().dropped_packets;
  base_.eps_drops = eps_.stats().packets_dropped;
  base_.sync_losses = processing_.stats().sync_losses;
  base_.reconfig_cuts = ocs_.stats().packets_cut_by_reconfig;
  base_.reconfigurations = ocs_.stats().reconfigurations;
  base_.dark_time = ocs_.stats().dark_time_total;
  base_.ocs_busy = ocs_.stats().busy_time_total;
  base_.decisions = scheduling_.stats().decisions;
  base_.decision_latency_total = scheduling_.stats().decision_latency_total;
  base_.uplink_drops = 0;
  for (auto& e : generators_) {
    e.g->reset_queue_peak();
    base_.uplink_drops += e.g->queue_drops();
  }
  // measure_start_ was set by start_run() (== warmup, not now(): the event
  // queue stopped 1 ps short of the boundary).
  measuring_ = true;
}

RunReport HybridSwitchFramework::finalize_run() {
  if (!measurement_begun_) throw std::logic_error{"Framework: finalize_run() before measurement"};
  measuring_ = false;

  report_.duration = duration_;
  // Self-reported names of the objects that actually scheduled this run —
  // truthful even when bespoke policies were installed via scheduling().
  report_.policy_stack = scheduling_.installed_policy_names();
  report_.voq_drops = processing_.voqs().stats().dropped_packets - base_.voq_drops;
  report_.eps_drops = eps_.stats().packets_dropped - base_.eps_drops;
  report_.sync_losses = processing_.stats().sync_losses - base_.sync_losses;
  report_.reconfig_cuts = ocs_.stats().packets_cut_by_reconfig - base_.reconfig_cuts;
  report_.reconfigurations = ocs_.stats().reconfigurations - base_.reconfigurations;
  report_.dark_time = ocs_.stats().dark_time_total - base_.dark_time;

  const sim::Time busy = ocs_.stats().busy_time_total - base_.ocs_busy;
  report_.ocs_duty_cycle =
      duration_.is_zero() ? 0.0
                          : busy.ratio(duration_ * static_cast<std::int64_t>(cfg_.ports));

  report_.peak_switch_buffer_bytes = processing_.voqs().stats().peak_total_bytes;
  std::int64_t worst_host = 0;
  for (std::uint32_t i = 0; i < cfg_.ports; ++i) {
    worst_host = std::max(worst_host, processing_.voqs().peak_input_bytes(i));
  }
  report_.peak_host_buffer_bytes = worst_host;

  const std::uint64_t decisions = scheduling_.stats().decisions - base_.decisions;
  report_.scheduler_decisions = decisions;
  if (decisions > 0) {
    report_.mean_decision_latency =
        (scheduling_.stats().decision_latency_total - base_.decision_latency_total) /
        static_cast<std::int64_t>(decisions);
  }

  // Ingress-queue stage (rack-aggregation uplinks): worst high-water mark
  // and measured-window drops across this switch's generators.  Zero for
  // plain per-port sources.
  std::uint64_t generator_drops = 0;
  for (const auto& e : generators_) {
    report_.peak_uplink_queue_bytes =
        std::max(report_.peak_uplink_queue_bytes, e.g->peak_queue_bytes());
    generator_drops += e.g->queue_drops();
  }
  report_.uplink_drops = generator_drops - base_.uplink_drops;

  for (const auto& [flow, jit] : flow_jitter_) {
    if (jit.samples() >= 8) report_.jitter_us.record(jit.jitter().us());
  }
  completion_.finalize(measure_start_, horizon_, report_);
  return report_;
}

RunReport HybridSwitchFramework::run(sim::Time duration, sim::Time warmup) {
  start_run(duration, warmup);
  // Stop 1 ps short of the boundary: run_until() executes events stamped
  // exactly at its horizon, and packets injected at t == warmup must fall
  // inside the measured window (counted offered), not at the tail of the
  // unmeasured warmup — otherwise synchronized sources (incast rounds, CBR
  // phases) deliver packets that were never offered.
  if (warmup > sim::Time::zero()) sim_.run_until(warmup - sim::Time::picoseconds(1));
  begin_measurement();
  sim_.run_until(horizon_);
  return finalize_run();
}

}  // namespace xdrs::core
