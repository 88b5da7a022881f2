#include "workloads.hpp"

#include <cmath>
#include <stdexcept>

#include "exp/runner.hpp"
#include "layers.hpp"

namespace perfbench {

namespace exp = xdrs::exp;
namespace core = xdrs::core;
using xdrs::sim::Time;
using Kind = xdrs::topo::WorkloadSpec::Kind;

namespace {

// The four axis lists of pcross_sweep, written out as
// PolicyRegistry::known_specs() returned them when the benchmark was
// defined.  A change that deletes or renames one of these policies must
// first re-baseline this workload in a change of its own (README.md).
const std::vector<std::string> kMatchers{"ilqf",     "islip:1",   "islip:4", "maxsize",
                                         "maxweight", "pim:1",     "pim:4",   "rotor",
                                         "rrm:1",     "serena",    "srpt_w:2", "wavefront"};
const std::vector<std::string> kCircuits{"bvn:4", "cthrough", "solstice", "tms:4"};
const std::vector<std::string> kEstimators{"edf", "ewma:0.25", "instantaneous", "windowed"};
const std::vector<std::string> kTimings{"distributed", "hardware", "hw:500MHz", "ideal",
                                        "software"};

/// The packets a flow workload's window offers (the median over seeds
/// 1..100 for a websearch instance, 1..2000 for pcross_sweep) and the
/// tolerance traffic_seeds() accepts around it.
constexpr double kWebsearchPackets = 210'000;
constexpr double kPcrossPackets = 700;
constexpr double kVolumeTolerance = 0.03;
/// traffic_seeds() gives up after this many candidates per instance.
constexpr std::uint64_t kMaxCandidates = 100'000;
/// Spacing of the candidate traffic seeds derived from one seed.
constexpr std::uint64_t kSeedStride = 1'000'003;

xdrs::topo::WorkloadSpec workload(Kind kind, double load, std::uint64_t traffic_seed) {
  xdrs::topo::WorkloadSpec w;
  w.kind = kind;
  w.load = load;
  w.seed = traffic_seed;
  return w;
}

exp::ScenarioSpec hybrid_switch(std::uint32_t ports, std::uint64_t seed) {
  exp::ScenarioSpec s;
  s.config.ports = ports;
  s.config.discipline = core::SchedulingDiscipline::kHybridEpoch;
  s.config.epoch = Time::microseconds(100);
  s.config.ocs_reconfig = Time::microseconds(1);
  s.config.min_circuit_hold = Time::microseconds(10);
  s.config.seed = seed;
  return s;
}

/// One pcross_sweep point before the policy axes are applied.
exp::ScenarioSpec pcross_point(std::uint64_t seed, std::uint64_t traffic_seed) {
  exp::ScenarioSpec s = hybrid_switch(8, seed);
  s.scenario = "flows";
  s.workloads.push_back(workload(Kind::kFlows, 0.7, traffic_seed));
  s.duration = Time::milliseconds(1);
  s.warmup = Time::microseconds(200);
  return s;
}

}  // namespace

const char* to_string(Workload w) noexcept {
  switch (w) {
    case Workload::kP128Uniform: return "p128_uniform";
    case Workload::kHybridWebsearch: return "hybrid_websearch";
    case Workload::kPcrossSweep: return "pcross_sweep";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) noexcept {
  for (const Workload w : all_workloads()) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

std::vector<Workload> all_workloads() {
  return {Workload::kP128Uniform, Workload::kHybridWebsearch, Workload::kPcrossSweep};
}

exp::ScenarioSpec p128_uniform(std::uint64_t seed, std::uint64_t traffic_seed) {
  exp::ScenarioSpec s;
  s.scenario = "uniform";
  s.config.ports = 128;
  s.config.discipline = core::SchedulingDiscipline::kSlotted;
  s.config.slot_time = Time::nanoseconds(12'500);
  s.config.ocs_reconfig = Time::nanoseconds(50);
  s.config.seed = seed;
  s.workloads.push_back(workload(Kind::kPoissonUniform, 0.6, traffic_seed));
  s.policies.matcher = "islip:4";
  s.duration = Time::milliseconds(4);
  s.warmup = Time::milliseconds(1);
  return s;
}

exp::ScenarioSpec hybrid_websearch(std::uint64_t seed, std::uint64_t traffic_seed,
                                   const std::string& repo_root) {
  exp::ScenarioSpec s = hybrid_switch(32, seed);
  s.scenario = "websearch";
  xdrs::topo::WorkloadSpec w = workload(Kind::kEmpirical, 0.45, traffic_seed);
  w.cdf_path = repo_root + "/examples/cdf_websearch.csv";
  s.workloads.push_back(w);
  s.duration = Time::milliseconds(20);
  s.warmup = Time::milliseconds(2);
  s.label = s.key() + "/t" + std::to_string(traffic_seed);
  return s;
}

std::vector<exp::ScenarioSpec> pcross_sweep(std::uint64_t seed, std::uint64_t traffic_seed) {
  std::vector<exp::ScenarioSpec> grid{pcross_point(seed, traffic_seed)};
  grid = exp::expand(grid, exp::axis_matcher(kMatchers));
  grid = exp::expand(grid, exp::axis_circuit(kCircuits));
  grid = exp::expand(grid, exp::axis_estimator(kEstimators));
  grid = exp::expand(grid, exp::axis_timing(kTimings));
  return grid;
}

std::vector<std::uint64_t> traffic_seeds(Workload w, std::uint64_t seed,
                                         const std::string& repo_root) {
  if (w == Workload::kP128Uniform) return {seed + 100};
  const bool websearch = w == Workload::kHybridWebsearch;
  const std::uint32_t instances = websearch ? kWebsearchInstances : 1;
  const double nominal = websearch ? kWebsearchPackets : kPcrossPackets;
  std::vector<std::uint64_t> seeds;
  for (std::uint32_t i = 0; i < instances; ++i) {
    for (std::uint64_t k = 0;; ++k) {
      if (k == kMaxCandidates) {
        throw std::runtime_error{std::string{"no traffic offers the nominal volume for "} +
                                 to_string(w)};
      }
      const std::uint64_t candidate = seed + 100 + (k * instances + i) * kSeedStride;
      const exp::ScenarioSpec spec = websearch ? hybrid_websearch(seed, candidate, repo_root)
                                               : pcross_point(seed, candidate);
      const auto offered = static_cast<double>(drive_traffic(spec, 0).window_packets);
      if (std::abs(offered - nominal) <= kVolumeTolerance * nominal) {
        seeds.push_back(candidate);
        break;
      }
    }
  }
  return seeds;
}

std::vector<exp::ScenarioSpec> workload_grid(Workload w, std::uint64_t seed,
                                             const std::vector<std::uint64_t>& traffic_seeds,
                                             const std::string& repo_root) {
  switch (w) {
    case Workload::kP128Uniform: return {p128_uniform(seed, traffic_seeds.at(0))};
    case Workload::kHybridWebsearch: {
      std::vector<exp::ScenarioSpec> grid;
      for (const std::uint64_t t : traffic_seeds) {
        grid.push_back(hybrid_websearch(seed, t, repo_root));
      }
      return grid;
    }
    case Workload::kPcrossSweep: return pcross_sweep(seed, traffic_seeds.at(0));
  }
  return {};
}

}  // namespace perfbench
