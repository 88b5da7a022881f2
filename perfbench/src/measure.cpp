#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>

#include "bench_util.hpp"
#include "exp/cache.hpp"
#include "exp/runner.hpp"
#include "layers.hpp"

namespace perfbench {

namespace core = xdrs::core;
namespace exp = xdrs::exp;
namespace sim = xdrs::sim;

namespace {

/// Builds timed per run of a single-switch workload besides the measured
/// ones, at least kMinBuildsPerPoint of each point: a single 128-port build
/// is too short and too noisy to time alone.
constexpr std::size_t kSetupBuilds = 64;
constexpr std::size_t kMinBuildsPerPoint = 8;
/// Whole-grid materialize passes per pcross_sweep run.
constexpr int kSetupPasses = 10;
/// Simulated time between pending-event samples in the traced run.
constexpr sim::Time kSlice = sim::Time::microseconds(20);
/// Packets the traced run keeps for the classifier and VOQ replays.
constexpr std::size_t kReplaySample = 131072;
/// ResultCache stores timed at least, when a workload has fewer reports.
constexpr std::size_t kMinStores = 16;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The run phase, warm-up included, as HybridSwitchFramework::run() does
/// it: stop 1 ps short of the warm-up boundary, open the window, run to
/// the horizon.  `advance(until)` moves the simulator.
template <typename Advance>
void run_phase(core::HybridSwitchFramework& fw, const exp::ScenarioSpec& spec,
               Advance&& advance) {
  fw.start_run(spec.duration, spec.warmup);
  if (spec.warmup > sim::Time::zero()) advance(spec.warmup - sim::Time::picoseconds(1));
  fw.begin_measurement();
  advance(fw.horizon());
}

// ------------------------------------------------------------- untraced

/// Materialize time of one build.
double time_build(const exp::ScenarioSpec& spec) {
  const auto t0 = Clock::now();
  auto fw = exp::materialize(spec);
  const double s = seconds_between(t0, Clock::now());
  fw.reset();
  return s;
}

/// The single-switch workloads: each point built, run and finalized in
/// turn.  wall_s sums the points; the run phase is timed apart from build
/// and finalize; setup_s sums each point's median build.
Outcome untraced_points(const Options& opt, const std::vector<exp::ScenarioSpec>& grid) {
  Outcome out{{}, PointTally{opt.expected}, {}};
  std::vector<std::vector<double>> builds(grid.size());
  const std::size_t rounds = std::max(kMinBuildsPerPoint, kSetupBuilds / grid.size());
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < grid.size(); ++i) builds[i].push_back(time_build(grid[i]));
  }

  double wall = 0.0, run = 0.0, offered = 0.0;
  std::uint64_t allocs = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const exp::ScenarioSpec& spec = grid[i];
    try {
      const auto t0 = Clock::now();
      auto fw = exp::materialize(spec);
      const auto t_built = Clock::now();
      const std::uint64_t allocs0 = xdrs::bench::heap_allocs();
      run_phase(*fw, spec, [&fw](sim::Time until) { fw->simulator().run_until(until); });
      const std::uint64_t allocs1 = xdrs::bench::heap_allocs();
      const auto t_ran = Clock::now();
      const core::RunReport report = fw->finalize_run();
      const auto t1 = Clock::now();

      builds[i].push_back(seconds_between(t0, t_built));
      wall += seconds_between(t0, t1);
      run += seconds_between(t_built, t_ran);
      allocs += allocs1 - allocs0;
      offered += static_cast<double>(report.offered_packets);
      out.tally.check(i, report);
      if (report.offered_packets == 0) out.tally.fail(i, "no packets offered");
    } catch (const std::exception& e) {
      out.tally.threw(i, e.what());
    }
  }
  double setup = 0.0;
  for (const auto& b : builds) setup += median(b);
  out.metrics = {
      {"wall_s", wall},
      {"setup_s", setup},
      {"pkts_per_s", ratio(offered, run)},
      {"allocs_per_pkt", ratio(static_cast<double>(allocs), offered)},
  };
  return out;
}

Outcome untraced_sweep(const Options& opt, const std::vector<exp::ScenarioSpec>& grid) {
  Outcome out{{}, PointTally{opt.expected}, {}};
  std::vector<double> passes;
  for (int i = 0; i < kSetupPasses; ++i) {
    double pass = 0.0;
    for (const auto& spec : grid) pass += time_build(spec);
    passes.push_back(pass);
  }

  const std::string cache_dir = opt.scratch_dir + "/sweep-cache";
  std::filesystem::remove_all(cache_dir);
  exp::ResultCache cache{cache_dir};
  exp::ExecutionPlan plan;
  plan.threads = 1;
  plan.cache = &cache;

  exp::SweepResult result;
  std::string json;
  const std::uint64_t allocs0 = xdrs::bench::heap_allocs();
  const auto t0 = Clock::now();
  try {
    result = exp::ExperimentRunner{plan}.run(grid);
    json = result.to_json();
  } catch (const std::exception& e) {
    // The runner aborts the whole sweep on a throwing point.
    for (std::size_t i = 0; i < grid.size(); ++i) out.tally.threw(i, e.what());
  }
  const auto t1 = Clock::now();
  const std::uint64_t allocs1 = xdrs::bench::heap_allocs();
  std::filesystem::remove_all(cache_dir);

  double offered = 0.0;
  double point_s = 0.0;
  for (const auto& p : result.points) {
    out.tally.check(p.index, p.report);
    offered += static_cast<double>(p.report.offered_packets);
    point_s += static_cast<double>(p.wall_us) * 1e-6;
  }
  if (!json.empty() && offered == 0.0) out.tally.fail(0, "no packets offered");
  out.metrics = {
      {"wall_s", seconds_between(t0, t1)},
      {"setup_s", median(passes)},
      // The runner times materialize and run together per point
      // (PointResult::wall_us); that sum is the run-phase base here.
      {"pkts_per_s", ratio(offered, point_s)},
      {"allocs_per_pkt", ratio(static_cast<double>(allocs1 - allocs0), offered)},
  };
  return out;
}

// --------------------------------------------------------------- traced

/// Layer counters summed over a workload's points (peaks take the max).
struct LayerTotals {
  double materialize_s{0}, run_s{0}, finalize_s{0};
  std::uint64_t events{0}, cancelled{0}, offered{0}, delivered{0}, completed_flows{0};
  std::size_t pending_peak{0};
  double pending_sum{0};
  std::uint64_t pending_samples{0};
  std::uint64_t lookups{0}, cache_hits{0};
  std::uint64_t voq_enqueued{0}, voq_dequeued{0}, voq_dropped{0};
  std::int64_t voq_peak{0}, voq_backlog_end{0};
  double plan_slots_sum{0};
  std::uint64_t plan_slots_n{0};
  std::uint64_t decisions{0};
  double decision_latency_us_sum{0};  ///< weighted by decisions
  std::uint64_t reconfigurations{0}, ocs_pkts{0}, eps_pkts{0}, eps_drops{0};
  std::int64_t eps_peak{0};
};

core::RunReport traced_point(const exp::ScenarioSpec& spec, Probe& probe, LayerTotals& t,
                             std::int32_t parent) {
  SpanLog& log = probe.log;
  const std::int32_t point = log.open("point", parent);
  const std::int32_t build = log.open("materialize", point);
  auto fw = exp::materialize(spec);
  log.close(build);
  install_decorators(*fw, spec.policies, probe);

  const std::int32_t run = log.open("run", point);
  probe.parent = run;
  sim::Simulator& sim = fw->simulator();
  run_phase(*fw, spec, [&sim, &t](sim::Time until) {
    while (sim.now() < until) {
      sim.run_until(std::min(until, sim.now() + kSlice));
      t.pending_peak = std::max(t.pending_peak, sim.pending_events());
      t.pending_sum += static_cast<double>(sim.pending_events());
      ++t.pending_samples;
    }
  });
  log.close(run);
  probe.parent = point;

  const std::int32_t fin = log.open("finalize", point);
  const core::RunReport report = fw->finalize_run();
  log.close(fin);
  log.close(point);

  t.materialize_s += log.seconds(build);
  t.run_s += log.seconds(run);
  t.finalize_s += log.seconds(fin);
  t.events += sim.stats().events_executed;
  t.cancelled += sim.stats().events_cancelled;
  t.offered += report.offered_packets;
  t.delivered += report.delivered_packets;
  t.completed_flows += report.fct_deadline.count() + report.fct_other.count();
  t.lookups += fw->classifier().stats().lookups;
  t.cache_hits += fw->classifier().stats().cache_hits;
  const auto& voqs = fw->processing().voqs();
  t.voq_enqueued += voqs.stats().enqueued_packets;
  t.voq_dequeued += voqs.stats().dequeued_packets;
  t.voq_dropped += voqs.stats().dropped_packets;
  t.voq_peak = std::max(t.voq_peak, voqs.stats().peak_total_bytes);
  t.voq_backlog_end = std::max(t.voq_backlog_end, voqs.total_bytes());
  const auto& plan_slots = fw->scheduling().stats().plan_slots;
  t.plan_slots_sum += plan_slots.mean() * static_cast<double>(plan_slots.count());
  t.plan_slots_n += plan_slots.count();
  t.decisions += report.scheduler_decisions;
  t.decision_latency_us_sum +=
      report.mean_decision_latency.us() * static_cast<double>(report.scheduler_decisions);
  t.reconfigurations += report.reconfigurations;
  t.ocs_pkts += fw->ocs().stats().packets_delivered;
  t.eps_pkts += fw->eps().stats().packets_delivered;
  t.eps_drops += report.eps_drops;
  t.eps_peak = std::max(t.eps_peak, fw->eps().stats().peak_queue_bytes);
  return report;
}

/// Effective identity of a point: the spec without its requested stack,
/// plus the stack that actually scheduled it.
std::string effective_stack(const exp::ScenarioSpec& spec, const core::RunReport& report) {
  std::string key = spec.key();
  const std::string requested = spec.policies.to_string();
  if (const auto at = key.find(requested); at != std::string::npos) key.erase(at, requested.size());
  return key + "|" + report.policy_stack;
}

/// Digest of a report with its stack name blanked: equal digests are equal
/// results, whatever the points were labelled.
std::string result_digest(core::RunReport report) {
  report.policy_stack.clear();
  return report_digest(report);
}

/// What a workload's reports show about its sweep layer, and the time of
/// storing them in a fresh ResultCache.
struct SweepLayer {
  double sweep_s{0};
  double serialize_s{0};
  std::uint64_t cached{0};
  std::vector<double> point_ms;
};

Metrics exp_metrics(const Options& opt, const std::vector<exp::ScenarioSpec>& grid,
                    const std::vector<core::RunReport>& reports, const SweepLayer& layer,
                    SpanLog& log, std::int32_t parent) {
  std::set<std::string> stacks, results;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    stacks.insert(effective_stack(grid[i], reports[i]));
    results.insert(result_digest(reports[i]));
  }
  std::vector<exp::ScenarioSpec> specs;
  std::vector<core::RunReport> stored;
  while (specs.size() < kMinStores && !reports.empty()) {
    specs.insert(specs.end(), grid.begin(),
                 grid.begin() + static_cast<std::ptrdiff_t>(reports.size()));
    stored.insert(stored.end(), reports.begin(), reports.end());
  }
  const std::int32_t store = log.open("cache_store", parent);
  const double store_ms = cache_store_ms(specs, stored, opt.scratch_dir + "/store-drive");
  log.close(store);
  return {
      {"exp.sweep_s", layer.sweep_s},
      {"exp.points", static_cast<double>(grid.size())},
      {"exp.computed_points", static_cast<double>(reports.size() - layer.cached)},
      {"exp.cached_points", static_cast<double>(layer.cached)},
      {"exp.distinct_stacks", static_cast<double>(stacks.size())},
      {"exp.distinct_results", static_cast<double>(results.size())},
      {"exp.point_ms_p50", percentile(layer.point_ms, 50)},
      {"exp.point_ms_p98", percentile(layer.point_ms, 98)},
      {"exp.serialize_s", layer.serialize_s},
      {"exp.cache_store_ms", store_ms},
  };
}

/// pcross_sweep's sweep layer: ExperimentRunner timed from outside (one
/// span per point, cut at each progress callback, and the runner's own
/// PointResult::wall_us), then SweepResult::to_json().  Its reports must
/// equal the phased run's.
SweepLayer run_sweep(const Options& opt, const std::vector<exp::ScenarioSpec>& grid,
                     const std::vector<std::string>& plain_digests, SpanLog& log,
                     std::int32_t parent, std::vector<core::RunReport>& reports,
                     PointTally& tally) {
  const std::string cache_dir = opt.scratch_dir + "/traced-sweep-cache";
  std::filesystem::remove_all(cache_dir);
  exp::ResultCache cache{cache_dir};
  exp::ExecutionPlan plan;
  plan.threads = 1;
  plan.cache = &cache;
  const std::int32_t sweep = log.open("sweep", parent);
  auto boundary = Clock::now();
  plan.progress = [&log, &boundary, sweep](std::size_t, std::size_t, const exp::ScenarioSpec&) {
    const auto now = Clock::now();
    log.add("point", boundary, now, sweep);
    boundary = now;
  };
  const exp::SweepResult result = exp::ExperimentRunner{plan}.run(grid);
  log.close(sweep);
  const std::int32_t ser = log.open("serialize", parent);
  const std::string json = result.to_json();
  log.close(ser);
  std::filesystem::remove_all(cache_dir);

  SweepLayer layer;
  layer.sweep_s = log.seconds(sweep);
  layer.serialize_s = log.seconds(ser);
  for (const auto& p : result.points) {
    if (report_digest(p.report) != plain_digests.at(p.index)) {
      tally.fail(p.index, "runner report differs from the phased run's");
    }
    layer.point_ms.push_back(static_cast<double>(p.wall_us) * 1e-3);
    layer.cached += p.cached ? 1 : 0;
    reports.push_back(p.report);
  }
  return layer;
}

}  // namespace

std::vector<exp::ScenarioSpec> resolve_grid(const Options& opt) {
  std::vector<std::uint64_t> seeds;
  if (std::ifstream in{opt.inputs_path}; !opt.inputs_path.empty() && in) {
    for (std::uint64_t v = 0; in >> v;) seeds.push_back(v);
  }
  if (seeds.empty()) {
    seeds = traffic_seeds(opt.workload, opt.seed, opt.repo_root);
    if (!opt.inputs_path.empty()) {
      std::ofstream out{opt.inputs_path};
      for (const std::uint64_t v : seeds) out << v << '\n';
    }
  }
  return workload_grid(opt.workload, opt.seed, seeds, opt.repo_root);
}

core::RunReport run_point(const exp::ScenarioSpec& spec) {
  auto fw = exp::materialize(spec);
  run_phase(*fw, spec, [&fw](sim::Time until) { fw->simulator().run_until(until); });
  return fw->finalize_run();
}

core::RunReport run_point_traced(const exp::ScenarioSpec& spec) {
  SpanLog log;
  Probe probe{log};
  LayerTotals totals;
  return traced_point(spec, probe, totals, -1);
}

Outcome measure_untraced(const Options& opt) {
  const auto grid = resolve_grid(opt);
  Outcome out = opt.workload == Workload::kPcrossSweep ? untraced_sweep(opt, grid)
                                                        : untraced_points(opt, grid);
  out.metrics.emplace_back("peak_rss_mb", peak_rss_mib());
  return out;
}

Outcome measure_traced(const Options& opt) {
  const auto grid = resolve_grid(opt);
  Outcome out{{}, PointTally{opt.expected}, {}};
  SpanLog log;
  const std::int32_t workload = log.open("workload", -1);

  // Each point undecorated (the reference report and the overhead base)
  // and decorated, alternating which goes first so neither pass gets the
  // warmer allocator.
  std::vector<std::string> plain_digests;
  std::vector<core::RunReport> reports;
  SweepLayer layer;
  Probe probe{log};
  LayerTotals t;
  double plain_wall = 0.0;
  const std::int32_t passes = log.open("points", workload);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    core::RunReport plain;
    core::RunReport traced;
    const auto run_plain = [&] {
      const auto t0 = Clock::now();
      plain = run_point(grid[i]);
      const auto t1 = Clock::now();
      log.add("untraced_point", t0, t1, passes);
      plain_wall += seconds_between(t0, t1);
      layer.point_ms.push_back(seconds_between(t0, t1) * 1e3);
    };
    if (i % 2 == 0) run_plain();
    traced = traced_point(grid[i], probe, t, passes);
    if (i % 2 == 1) run_plain();
    out.tally.check(i, plain);
    plain_digests.push_back(report_digest(plain));
    if (report_digest(traced) != plain_digests.back()) {
      out.tally.fail(i, "traced report differs from the untraced one");
    }
    reports.push_back(std::move(plain));
  }
  log.close(passes);

  if (opt.workload == Workload::kPcrossSweep) {
    reports.clear();
    layer = run_sweep(opt, grid, plain_digests, log, workload, reports, out.tally);
  } else {
    // No runner: the sweep layer is the points themselves (exp.sweep_s
    // stays 0, README.md) and their reports' serialization.
    const std::int32_t ser = log.open("serialize", workload);
    std::size_t bytes = 0;
    for (const auto& r : reports) bytes += r.to_json().size();
    log.close(ser);
    volatile std::size_t sink = bytes;  // keeps the serialization live
    (void)sink;
    layer.serialize_s = log.seconds(ser);
  }
  const Metrics sweep_layer = exp_metrics(opt, grid, reports, layer, log, workload);
  reports.clear();

  // Isolated drives.  All pcross_sweep points carry the same traffic, so
  // one drive stands for every point.
  const std::int32_t drives = log.open("isolated_drives", workload);
  const bool shared_traffic = opt.workload == Workload::kPcrossSweep;
  TrafficDrive drive;
  for (std::size_t i = 0; i < (shared_traffic ? 1 : grid.size()); ++i) {
    TrafficDrive d = drive_traffic(grid[i], drive.sample.empty() ? kReplaySample : 0);
    drive.packets += d.packets;
    drive.window_packets += d.window_packets;
    drive.events += d.events;
    drive.seconds += d.seconds;
    if (drive.sample.empty()) drive.sample = std::move(d.sample);
  }
  const double copies = shared_traffic ? static_cast<double>(grid.size()) : 1.0;
  if (static_cast<double>(drive.window_packets) * copies != static_cast<double>(t.offered)) {
    out.tally.fail(0, "bare generator drive disagrees with offered_packets");
  }
  const double queue_ns = event_queue_ns(t.pending_peak);
  // The run spends most of its time below the peak depth; the explained
  // share charges events at the mean sampled depth.
  const double mean_depth = ratio(t.pending_sum, static_cast<double>(t.pending_samples));
  const double queue_ns_mean = event_queue_ns(static_cast<std::size_t>(mean_depth));
  const double lookup_ns = classify_ns(drive.sample);
  const double voq_ns = voq_ns_per_op(drive.sample, grid.front().config.ports);
  log.close(drives);
  log.close(workload);

  const double traffic_s = drive.seconds * copies;
  const double queue_events =
      std::max(0.0, static_cast<double>(t.events) - static_cast<double>(drive.events) * copies);
  const double explained =
      probe.child_seconds() + traffic_s + queue_ns_mean * 1e-9 * queue_events +
      lookup_ns * 1e-9 * static_cast<double>(t.lookups) +
      voq_ns * 1e-9 * static_cast<double>(t.voq_enqueued + t.voq_dequeued);
  const double traced_wall = t.materialize_s + t.run_s + t.finalize_s;
  const auto offered = static_cast<double>(t.offered);
  const auto updates = probe.arrivals.calls + probe.departures.calls + probe.deadlines.calls;
  const auto per_call_us = [](const CallTotals& c) {
    return ratio(static_cast<double>(c.ns) * 1e-3, static_cast<double>(c.calls));
  };
  out.metrics = {
      {"sim.events", static_cast<double>(t.events)},
      {"sim.events_per_pkt", ratio(static_cast<double>(t.events), offered)},
      {"sim.cancelled", static_cast<double>(t.cancelled)},
      {"sim.pending_peak", static_cast<double>(t.pending_peak)},
      {"sim.loop_self_s", t.run_s - probe.child_seconds()},
      {"sim.queue_ns_per_event", queue_ns},
      {"traffic.pkts", static_cast<double>(drive.packets) * copies},
      {"traffic.ns_per_pkt", ratio(drive.seconds * 1e9, static_cast<double>(drive.packets))},
      {"net.lookups", static_cast<double>(t.lookups)},
      {"net.cache_hit_ratio",
       ratio(static_cast<double>(t.cache_hits), static_cast<double>(t.lookups))},
      {"net.classify_ns", lookup_ns},
      {"voq.enqueued", static_cast<double>(t.voq_enqueued)},
      {"voq.dropped", static_cast<double>(t.voq_dropped)},
      {"voq.peak_bytes", static_cast<double>(t.voq_peak)},
      {"voq.backlog_bytes_end", static_cast<double>(t.voq_backlog_end)},
      {"voq.ns_per_op", voq_ns},
      {"estimator.arrivals", static_cast<double>(probe.arrivals.calls)},
      {"estimator.departures", static_cast<double>(probe.departures.calls)},
      {"estimator.ns_per_update",
       ratio(static_cast<double>(probe.arrivals.ns + probe.departures.ns + probe.deadlines.ns),
             static_cast<double>(updates))},
      {"estimator.snapshots", static_cast<double>(probe.snapshot.calls)},
      {"estimator.snapshot_us", per_call_us(probe.snapshot)},
      {"matcher.calls", static_cast<double>(probe.matcher.calls)},
      {"matcher.us_per_call", per_call_us(probe.matcher)},
      {"matcher.share", ratio(probe.matcher.seconds(), t.run_s)},
      {"circuit.calls", static_cast<double>(probe.circuit.calls)},
      {"circuit.us_per_call", per_call_us(probe.circuit)},
      {"circuit.share", ratio(probe.circuit.seconds(), t.run_s)},
      {"circuit.plan_slots_mean", ratio(t.plan_slots_sum, static_cast<double>(t.plan_slots_n))},
      {"sched.decisions", static_cast<double>(t.decisions)},
      {"sched.decision_latency_us",
       ratio(t.decision_latency_us_sum, static_cast<double>(t.decisions))},
      {"ocs.reconfigurations", static_cast<double>(t.reconfigurations)},
      {"ocs.pkts", static_cast<double>(t.ocs_pkts)},
      {"eps.pkts", static_cast<double>(t.eps_pkts)},
      {"eps.drops", static_cast<double>(t.eps_drops)},
      {"eps.peak_queue_bytes", static_cast<double>(t.eps_peak)},
      {"core.finalize_s", t.finalize_s},
      {"core.delivered_pkts", static_cast<double>(t.delivered)},
      {"core.completed_flows", static_cast<double>(t.completed_flows)},
  };
  out.metrics.insert(out.metrics.end(), sweep_layer.begin(), sweep_layer.end());
  out.metrics.emplace_back("trace.overhead_ratio", ratio(traced_wall, plain_wall));
  out.metrics.emplace_back("trace.explained_share", ratio(explained, t.run_s));
  out.spans_json = log.to_json();
  return out;
}

}  // namespace perfbench
