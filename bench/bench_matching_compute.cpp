// E3a — wall-clock compute cost of each scheduling algorithm vs port count
// (google-benchmark microbenchmark), plus the allocation gate CI runs
// (`--alloc-check`: zero per matcher decision, at most one per offered
// packet over a whole simulated run), plus a self-contained timing mode
// (`--ports=N [--csv=PATH]`) that emits machine-readable numbers so kernel
// before/after comparisons are recorded, not copy-pasted.
//
// Grounds the paper's claim that schedule computation is the bottleneck a
// hardware scheduler removes: even on a modern CPU, exact max-weight
// matching at 128 ports costs hundreds of microseconds per decision —
// far beyond a nanosecond-scale optical switching time.  The measured loop
// is the framework's real hot path: MatchingAlgorithm::compute_into with a
// recycled Matching, which must not touch the heap once warm.
#define XDRS_BENCH_ALLOC_COUNTER
#include "bench_util.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "demand/demand_matrix.hpp"
#include "exp/scenario.hpp"
#include "obs/metrics.hpp"
#include "schedulers/policy_registry.hpp"
#include "sim/random.hpp"
#include "util/parse.hpp"

namespace {

using namespace xdrs;

demand::DemandMatrix random_demand(std::uint32_t n, std::uint64_t seed, double density) {
  sim::Rng rng{seed};
  demand::DemandMatrix m{n};
  for (net::PortId i = 0; i < n; ++i) {
    for (net::PortId j = 0; j < n; ++j) {
      if (rng.bernoulli(density)) m.set(i, j, rng.uniform_int(1, 1'000'000));
    }
  }
  return m;
}

void run_matcher(benchmark::State& state, const char* spec) {
  const auto ports = static_cast<std::uint32_t>(state.range(0));
  auto matcher = schedulers::PolicyRegistry::instance().make_matcher(
      spec, {.ports = ports, .seed = 42});
  const demand::DemandMatrix d = random_demand(ports, ports * 7 + 1, 0.5);
  schedulers::Matching out;
  for (auto _ : state) {
    matcher->compute_into(d, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetLabel(matcher->name());
  state.counters["ports"] = ports;
  state.counters["iters_used"] = matcher->last_iterations();
}

void BM_Islip1(benchmark::State& s) { run_matcher(s, "islip:1"); }
void BM_Islip4(benchmark::State& s) { run_matcher(s, "islip:4"); }
void BM_Pim4(benchmark::State& s) { run_matcher(s, "pim:4"); }
void BM_Rrm1(benchmark::State& s) { run_matcher(s, "rrm:1"); }
void BM_GreedyIlqf(benchmark::State& s) { run_matcher(s, "ilqf"); }
void BM_MaxSizeHk(benchmark::State& s) { run_matcher(s, "maxsize"); }
void BM_MaxWeightHungarian(benchmark::State& s) { run_matcher(s, "maxweight"); }
void BM_Rotor(benchmark::State& s) { run_matcher(s, "rotor"); }

constexpr std::int64_t kLo = 8, kHi = 128;

BENCHMARK(BM_Islip1)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_Islip4)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_Pim4)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_Rrm1)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_GreedyIlqf)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_MaxSizeHk)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_MaxWeightHungarian)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_Rotor)->RangeMultiplier(2)->Range(kLo, kHi);

/// The whole-run cases of `--alloc-check`: a slotted switch under Poisson
/// uniform traffic (generators, classifier, VOQs and the event queue on
/// every packet) and a hybrid switch under websearch flows (estimator,
/// circuit planner, OCS and EPS every epoch, a deep pending-event set).
std::vector<exp::ScenarioSpec> whole_run_cases() {
  exp::ScenarioSpec slotted;
  slotted.scenario = "uniform";
  slotted.config.ports = 32;
  slotted.config.discipline = core::SchedulingDiscipline::kSlotted;
  slotted.config.slot_time = sim::Time::nanoseconds(12'500);
  slotted.config.ocs_reconfig = sim::Time::nanoseconds(50);
  slotted.config.seed = 7;
  topo::WorkloadSpec uniform;
  uniform.kind = topo::WorkloadSpec::Kind::kPoissonUniform;
  uniform.load = 0.6;
  uniform.seed = 107;
  slotted.workloads.push_back(uniform);
  slotted.policies.matcher = "islip:4";
  slotted.duration = sim::Time::milliseconds(4);
  slotted.warmup = sim::Time::milliseconds(1);

  exp::ScenarioSpec hybrid;
  hybrid.scenario = "websearch";
  hybrid.config = bench::hybrid_base(16);
  hybrid.config.seed = 7;
  topo::WorkloadSpec websearch;
  websearch.kind = topo::WorkloadSpec::Kind::kEmpirical;
  websearch.load = 0.45;
  websearch.seed = 107;
  websearch.cdf_path = exp::kWebsearchCdfPath;
  hybrid.workloads.push_back(websearch);
  hybrid.duration = sim::Time::milliseconds(10);
  hybrid.warmup = sim::Time::milliseconds(2);
  return {slotted, hybrid};
}

/// The simulator's allocation budget: at most one heap allocation per
/// offered packet, counted from begin_measurement() to the horizon.  A
/// warm event queue and VOQ bank allocate nothing per packet, so what
/// remains is per-flow state and the growth of pools to their peak.
int whole_run_alloc_check() {
  int failures = 0;
  std::printf("heap allocations per offered packet over a measured window:\n");
  for (const exp::ScenarioSpec& spec : whole_run_cases()) {
    auto fw = exp::materialize(spec);
    fw->start_run(spec.duration, spec.warmup);
    fw->simulator().run_until(spec.warmup - sim::Time::picoseconds(1));
    const std::uint64_t before = bench::heap_allocs();
    fw->begin_measurement();
    fw->simulator().run_until(fw->horizon());
    const std::uint64_t allocs = bench::heap_allocs() - before;
    const core::RunReport report = fw->finalize_run();

    const double per_packet = report.offered_packets == 0
                                  ? 0.0
                                  : static_cast<double>(allocs) /
                                        static_cast<double>(report.offered_packets);
    const bool ok = report.offered_packets > 0 && per_packet <= 1.0;
    if (!ok) ++failures;
    std::printf("  %-9s %3u ports %-10s %10llu allocs / %8llu pkts = %.4f %s\n",
                spec.scenario.c_str(), spec.config.ports,
                spec.config.discipline == core::SchedulingDiscipline::kSlotted ? "slotted"
                                                                               : "hybrid",
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(report.offered_packets), per_packet,
                ok ? "OK" : "FAIL");
  }
  if (failures > 0) {
    std::fprintf(stderr, "alloc-check: %d whole run(s) allocate more than once per packet\n",
                 failures);
  }
  return failures;
}

/// `--alloc-check`: for every registered matcher spec, warm the decision
/// loop, then count heap allocations over a steady-state window.  Any
/// allocation is a regression of the allocation-free compute contract.
/// Run at 48, 64 AND 128 ports: 48 is the 2-rack fat-tree ToR shape (32
/// host ports + 16 uplinks at 2:1 oversubscription) — a non-power-of-two
/// count the topology path schedules every epoch — while 64/128 prove the
/// bitset and warm-rematch workspaces are preallocated at paper scale too
/// (two words per port row, not one).
///
/// The measured loop wraps each decision in a disabled-registry ScopedSpan,
/// exactly as SchedulingLogic does when telemetry is compiled in but off —
/// so the gate also proves the telemetry-off hot path costs no allocation.
/// The whole-run cases follow (whole_run_alloc_check).
int alloc_check() {
  constexpr std::uint32_t kPortCounts[] = {48, 64, 128};
  constexpr int kWarmupDecisions = 64;
  constexpr int kMeasuredDecisions = 256;

  const auto& registry = schedulers::PolicyRegistry::instance();
  obs::Registry disabled_telemetry;  // never enabled: the production default
  obs::Timer& stage_timer = disabled_telemetry.timer("matcher_compute");

  int failures = 0;
  for (const std::uint32_t ports : kPortCounts) {
    const demand::DemandMatrix d = random_demand(ports, 7, 0.5);
    std::printf("steady-state heap allocations per %d decisions (%u ports):\n",
                kMeasuredDecisions, ports);
    for (const auto& spec : registry.known_specs(schedulers::PolicyKind::kMatcher)) {
      auto matcher = registry.make_matcher(spec, {.ports = ports, .seed = 42});
      schedulers::Matching out;
      for (int i = 0; i < kWarmupDecisions; ++i) matcher->compute_into(d, out);

      const std::uint64_t before = bench::heap_allocs();
      for (int i = 0; i < kMeasuredDecisions; ++i) {
        obs::ScopedSpan span{&disabled_telemetry, &stage_timer};
        matcher->compute_into(d, out);
      }
      const std::uint64_t allocs = bench::heap_allocs() - before;

      const bool ok = allocs == 0;
      if (!ok) ++failures;
      std::printf("  %-12s %-18s %8llu %s\n", spec.c_str(), matcher->name().c_str(),
                  static_cast<unsigned long long>(allocs), ok ? "OK" : "FAIL");
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "alloc-check: %d matcher config(s) allocate in steady state\n",
                 failures);
  } else {
    std::printf("alloc-check: all matchers run allocation-free in steady state\n");
  }
  const int whole_run_failures = whole_run_alloc_check();
  return failures + whole_run_failures > 0 ? 1 : 0;
}

/// `--ports=N [--csv=PATH]`: time every registered matcher at exactly the
/// requested port counts (repeatable flag) over the same randomized demand
/// the microbenchmarks use, and optionally append the numbers to a CSV —
/// one row per (spec, ports) — so kernel before/after comparisons live in
/// version-controllable files instead of terminal scrollback.
int timing_mode(const std::vector<std::uint32_t>& port_counts, const std::string& csv_path) {
  using clock = std::chrono::steady_clock;
  constexpr int kWarmupDecisions = 64;
  constexpr auto kMinWindow = std::chrono::milliseconds{200};

  std::FILE* csv = nullptr;
  if (!csv_path.empty()) {
    csv = std::fopen(csv_path.c_str(), "w");
    if (csv == nullptr) {
      std::fprintf(stderr, "bench_matching_compute: cannot open %s\n", csv_path.c_str());
      return 1;
    }
    std::fprintf(csv, "spec,name,ports,decisions,ns_per_decision,iters_used\n");
  }

  const auto& registry = schedulers::PolicyRegistry::instance();
  for (const std::uint32_t ports : port_counts) {
    const demand::DemandMatrix d = random_demand(ports, ports * 7 + 1, 0.5);
    std::printf("matcher compute cost at %u ports:\n", ports);
    for (const auto& spec : registry.known_specs(schedulers::PolicyKind::kMatcher)) {
      auto matcher = registry.make_matcher(spec, {.ports = ports, .seed = 42});
      schedulers::Matching out;
      for (int i = 0; i < kWarmupDecisions; ++i) matcher->compute_into(d, out);

      // Run whole batches until the measured window is long enough for the
      // clock resolution to be noise.
      std::uint64_t decisions = 0;
      const auto start = clock::now();
      auto elapsed = start - start;
      while (elapsed < kMinWindow) {
        for (int i = 0; i < 64; ++i) matcher->compute_into(d, out);
        decisions += 64;
        elapsed = clock::now() - start;
      }
      const double ns =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
          static_cast<double>(decisions);

      std::printf("  %-12s %-18s %12.1f ns/decision  (%llu decisions, %u iters)\n",
                  spec.c_str(), matcher->name().c_str(), ns,
                  static_cast<unsigned long long>(decisions), matcher->last_iterations());
      if (csv != nullptr) {
        std::fprintf(csv, "%s,%s,%u,%llu,%.1f,%u\n", spec.c_str(), matcher->name().c_str(),
                     ports, static_cast<unsigned long long>(decisions), ns,
                     matcher->last_iterations());
      }
    }
  }
  if (csv != nullptr) std::fclose(csv);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> port_counts;
  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--alloc-check") == 0) return alloc_check();
    if (std::strncmp(argv[i], "--ports=", 8) == 0) {
      std::uint32_t ports = 0;
      if (!util::parse_number(argv[i] + 8, ports) || ports == 0) {
        std::fprintf(stderr, "bench_matching_compute: bad --ports value: %s\n", argv[i] + 8);
        return 1;
      }
      port_counts.push_back(ports);
    } else if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      csv_path = argv[i] + 6;
    }
  }
  if (!port_counts.empty()) return timing_mode(port_counts, csv_path);
  if (!csv_path.empty()) {
    std::fprintf(stderr, "bench_matching_compute: --csv requires --ports=N\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
