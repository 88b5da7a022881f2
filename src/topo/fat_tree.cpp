#include "topo/fat_tree.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace xdrs::topo {

namespace {

/// splitmix64 finaliser: full avalanche, so structured inputs (port
/// indices, sequential flow ids) still draw uniform placements.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint32_t TopologySpec::uplinks(std::uint32_t host_ports) const {
  const double u = static_cast<double>(host_ports) / oversubscription;
  return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(std::llround(u)));
}

Placement place_flow(std::uint64_t seed, std::uint32_t rack, net::PortId src, net::PortId dst,
                     net::FlowId flow, double locality, std::uint32_t racks,
                     std::uint32_t uplinks) {
  Placement out;
  out.dst_rack = rack;
  if (racks <= 1 || uplinks == 0) return out;
  // Hash the flow's full identity; dst is included so packet-level sources
  // (flow id constant per port) still place per destination pair.
  std::uint64_t h = mix64(seed ^ mix64(flow));
  h = mix64(h ^ (static_cast<std::uint64_t>(src) << 32 | dst));
  h = mix64(h ^ rack);
  const double u01 = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u01 < locality) return out;
  const std::uint64_t h2 = mix64(h);
  std::uint32_t other = static_cast<std::uint32_t>(h2 % (racks - 1));
  if (other >= rack) ++other;  // skip self: remote means a DIFFERENT rack
  out.remote = true;
  out.dst_rack = other;
  out.uplink = static_cast<std::uint32_t>(mix64(h2) % uplinks);
  return out;
}

FatTree::FatTree(TopologySpec topo, core::FrameworkConfig tor)
    : topo_{topo}, host_ports_{tor.ports}, uplink_ports_{0} {
  if (topo_.racks == 0) throw std::invalid_argument{"FatTree: racks must be >= 1"};
  if (host_ports_ == 0) throw std::invalid_argument{"FatTree: a ToR needs host ports"};
  if (!(topo_.oversubscription > 0.0) || !std::isfinite(topo_.oversubscription)) {
    throw std::invalid_argument{"FatTree: oversubscription must be finite and positive"};
  }
  uplink_ports_ = topo_.multi_rack() ? topo_.uplinks(host_ports_) : 0;

  racks_.reserve(topo_.racks);
  for (std::uint32_t r = 0; r < topo_.racks; ++r) {
    core::FrameworkConfig cfg = tor;
    cfg.ports = host_ports_ + uplink_ports_;
    cfg.uplink_ports = uplink_ports_;
    // Decorrelate the racks' internal randomness (OCS failure draws, host
    // clock skew); rack 0 keeps the base seeds, so a single-rack FatTree
    // builds EXACTLY the single-switch framework.
    cfg.seed = tor.seed + 7919ULL * r;
    cfg.sync.seed = tor.sync.seed + r;
    racks_.push_back(std::make_unique<core::HybridSwitchFramework>(sim_, cfg));
  }

  if (!topo_.multi_rack()) return;

  DrainQueue::Config qc;
  qc.rate = tor.link_rate;
  qc.buffer_bytes = topo_.core_buffer_bytes;
  qc.latency = topo_.core_latency;
  core_.reserve(static_cast<std::size_t>(uplink_ports_) * topo_.racks);
  for (std::uint32_t u = 0; u < uplink_ports_; ++u) {
    for (std::uint32_t r = 0; r < topo_.racks; ++r) {
      auto q = std::make_unique<DrainQueue>(qc);
      q->attach(sim_, [this, r](const net::Packet& p) { racks_[r]->reinject(p); });
      core_.push_back(std::move(q));
    }
  }
  for (std::uint32_t r = 0; r < topo_.racks; ++r) {
    racks_[r]->set_uplink_hook(host_ports_,
                               [this, r](const net::Packet& p, control::FabricPath) {
                                 route_uplink(r, p);
                               });
  }
}

void FatTree::route_uplink(std::uint32_t src_rack, const net::Packet& p) {
  // The source ToR delivered `p` at uplink egress port host_ports_ + u:
  // that is core switch u.  Its downlink FIFO into the destination rack
  // serialises + propagates, then reinjects at the same uplink index of
  // the destination ToR, retargeted at the final host port.
  const std::uint32_t u = p.dst - host_ports_;
  net::Packet q = p;
  q.src = host_ports_ + u;  // ingress port at the destination ToR
  q.dst = p.final_dst;
  core_[static_cast<std::size_t>(u) * topo_.racks + p.dst_rack]->offer(q);
  (void)src_rack;
}

core::HybridSwitchFramework::IngressTransform FatTree::placement_transform(
    std::uint32_t rack, double locality, std::uint64_t seed) const {
  if (!topo_.multi_rack()) return {};
  const std::uint32_t racks = topo_.racks;
  const std::uint32_t uplinks = uplink_ports_;
  const std::uint32_t host = host_ports_;
  return [seed, rack, locality, racks, uplinks, host](net::Packet& p) {
    const Placement pl = place_flow(seed, rack, p.src, p.dst, p.flow, locality, racks, uplinks);
    p.src_rack = rack;
    p.dst_rack = pl.dst_rack;
    if (!pl.remote) return;
    p.final_dst = p.dst;
    p.dst = host + pl.uplink;
    p.remote = true;
    // Rack-namespace the flow id: destination-side completion tracking keys
    // on (ingress uplink port, flow id), and two racks' generators emit
    // overlapping id sequences.
    p.flow |= (static_cast<std::uint64_t>(rack) + 1) << 48;
  };
}

void FatTree::enable_telemetry(const obs::TelemetryConfig& tcfg) {
  if (ran_) throw std::logic_error{"FatTree: enable_telemetry() must precede run()"};
  if (telemetry_) return;
  telemetry_ = std::make_unique<obs::RunTelemetry>(tcfg);
  for (auto& fw : racks_) fw->attach_stage_timers(&telemetry_->registry());
  // One VOQ-occupancy track per ToR plus the core tier's aggregate queue
  // depth — the per-tier counter tracks `sweepctl trace` renders.  A single
  // switch has no tiers: its timeline already is the one ToR's track.
  if (!topo_.multi_rack()) return;
  tier_series_.reserve(racks_.size() + 1);
  for (std::uint32_t r = 0; r < racks_.size(); ++r) {
    tier_series_.emplace_back("tor" + std::to_string(r) + ".voq_bytes");
  }
  tier_series_.emplace_back("core.queue_bytes");
}

std::vector<std::pair<std::string, const stats::TimeSeries*>> FatTree::tier_series() const {
  std::vector<std::pair<std::string, const stats::TimeSeries*>> out;
  out.reserve(tier_series_.size());
  for (const auto& t : tier_series_) out.emplace_back(t.name, &t.series);
  return out;
}

std::int64_t FatTree::core_queue_bytes() const noexcept {
  std::int64_t total = 0;
  for (const auto& q : core_) total += q->queue_bytes();
  return total;
}

void FatTree::sample_tiers(sim::Time period, sim::Time horizon) {
  const sim::Time now = sim_.now();
  obs::TimelineSnapshot agg;
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    // "Urgent" = open deadline flows due within one sample period, so the
    // horizon tracks the timeline's own resolution.
    const obs::TimelineSnapshot s = racks_[r]->timeline_snapshot(period);
    agg.voq_total_bytes += s.voq_total_bytes;
    agg.voq_max_bytes = std::max(agg.voq_max_bytes, s.voq_max_bytes);
    agg.demand_nonzeros += s.demand_nonzeros;
    agg.ocs_delivered_bytes += s.ocs_delivered_bytes;
    agg.eps_delivered_bytes += s.eps_delivered_bytes;
    agg.urgent_flows += s.urgent_flows;
    agg.urgent_bytes += s.urgent_bytes;
    if (!tier_series_.empty()) {
      tier_series_[r].series.record(now, static_cast<double>(s.voq_total_bytes));
    }
  }
  if (!tier_series_.empty()) {
    tier_series_.back().series.record(now, static_cast<double>(core_queue_bytes()));
  }
  telemetry_->timeline().record(now, agg);
  if (now + period <= horizon) {
    sim_.schedule(period, [this, period, horizon] { sample_tiers(period, horizon); });
  }
}

core::RunReport FatTree::run(sim::Time duration, sim::Time warmup) {
  if (ran_) throw std::logic_error{"FatTree: run() is one-shot per instance"};
  ran_ = true;

  for (auto& fw : racks_) fw->start_run(duration, warmup);
  const sim::Time horizon = warmup + duration;
  // Same 1 ps early stop as HybridSwitchFramework::run(): boundary-stamped
  // injections must land inside the measured window.
  if (warmup > sim::Time::zero()) sim_.run_until(warmup - sim::Time::picoseconds(1));
  for (auto& fw : racks_) fw->begin_measurement();
  base_core_bytes_ = 0;
  base_core_drops_ = 0;
  for (auto& q : core_) {
    q->reset_peak();
    base_core_bytes_ += q->forwarded_bytes();
    base_core_drops_ += q->drops();
  }
  if (telemetry_) {
    // ~256 timeline samples across the measured window, never finer than
    // 1 us.  Sampling is read-only and rides its own event chain, so it
    // cannot perturb the run.
    const sim::Time period = std::max(duration / 256, sim::Time::microseconds(1));
    telemetry_->set_sample_period(period);
    sim_.schedule_at(warmup, [this, period, horizon] { sample_tiers(period, horizon); });
  }

  sim_.run_until(horizon);

  core::RunReport fleet = racks_.front()->finalize_run();
  for (std::size_t r = 1; r < racks_.size(); ++r) fleet.merge(racks_[r]->finalize_run());
  // merge() accumulates durations (its sweep-aggregation contract), but the
  // racks ran the SAME window — normalise back to one.  Duration-weighted
  // rates (duty cycle) merged over equal windows reduce to plain means, so
  // they stay correct.
  fleet.duration = duration;

  std::int64_t core_bytes = 0;
  std::uint64_t core_drops = 0;
  std::int64_t peak = 0;
  for (const auto& q : core_) {
    core_bytes += q->forwarded_bytes();
    core_drops += q->drops();
    peak = std::max(peak, q->peak_queue_bytes());
  }
  fleet.core_link_bytes = core_bytes - base_core_bytes_;
  fleet.core_drops = core_drops - base_core_drops_;
  fleet.peak_core_queue_bytes = peak;
  if (!core_.empty()) {
    const double capacity_bytes =
        static_cast<double>(racks_.front()->config().link_rate.bits_per_sec()) / 8.0 *
        duration.sec() * static_cast<double>(core_.size());
    fleet.core_utilization =
        capacity_bytes > 0.0 ? static_cast<double>(fleet.core_link_bytes) / capacity_bytes : 0.0;
  }
  return fleet;
}

}  // namespace xdrs::topo
