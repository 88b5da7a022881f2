// The benchmark's three workloads, pinned here rather than taken from
// exp::make_preset() or the scenario registry: presets and registered
// scenarios may be re-windowed or re-labelled by later changes, and the
// benchmark must keep measuring the same inputs until it is re-baselined on
// purpose.  Why each workload exists is recorded in perfbench/README.md.
#ifndef XDRS_PERFBENCH_WORKLOADS_HPP
#define XDRS_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/scenario.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kP128Uniform, kHybridWebsearch, kPcrossSweep };

inline constexpr std::uint64_t kDefaultSeed = 7;

[[nodiscard]] const char* to_string(Workload w) noexcept;
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name) noexcept;
[[nodiscard]] std::vector<Workload> all_workloads();

/// Slotted 128-port switch, Poisson uniform traffic at load 0.6, islip:4,
/// generators seeded with `traffic_seed`.
[[nodiscard]] xdrs::exp::ScenarioSpec p128_uniform(std::uint64_t seed, std::uint64_t traffic_seed);

/// Hybrid-epoch 32-port switch, websearch CDF flows at load 0.45, the
/// default stack.  The CDF is resolved under `repo_root`, never the
/// working directory.
[[nodiscard]] xdrs::exp::ScenarioSpec hybrid_websearch(std::uint64_t seed,
                                                       std::uint64_t traffic_seed,
                                                       const std::string& repo_root);

/// The 960-point policy cross on 8-port `flows` at load 0.7: 12 matchers x
/// 4 circuit schedulers x 4 estimators x 5 timing models, grid order
/// matcher-major, every point on the same traffic.
[[nodiscard]] std::vector<xdrs::exp::ScenarioSpec> pcross_sweep(std::uint64_t seed,
                                                                std::uint64_t traffic_seed);

/// hybrid_websearch is this many instances of the switch, each with its
/// own traffic: one 22 ms window holds too few heavy-tailed flows for its
/// host cost to be steady from seed to seed.
inline constexpr std::uint32_t kWebsearchInstances = 8;

/// The generator seeds a workload runs with at `seed`, one per traffic
/// instance.
///
/// p128_uniform offers ~650K Poisson packets per window, a count that
/// barely moves with the seed: its one traffic seed is seed + 100, the
/// scenario registry's convention.  The flow workloads offer few,
/// heavy-tailed flows per window, so their volume moves a lot with the
/// seed (one pcross_sweep window offers 86 to 1887 packets between the 5th
/// and 95th percentile of seeds).  Each of their instances therefore takes
/// the first candidate seed + 100 + (k * instances + i) * 1000003,
/// k = 0, 1, ..., whose window offers the workload's median volume +-3%:
/// every seed gives different traffic of about the same volume.  Finding
/// them drives the generators alone, a fraction of a second per instance.
[[nodiscard]] std::vector<std::uint64_t> traffic_seeds(Workload w, std::uint64_t seed,
                                                       const std::string& repo_root);

/// The workload's points for `traffic_seeds(w, seed, repo_root)`.
[[nodiscard]] std::vector<xdrs::exp::ScenarioSpec> workload_grid(
    Workload w, std::uint64_t seed, const std::vector<std::uint64_t>& traffic_seeds,
    const std::string& repo_root);

}  // namespace perfbench

#endif  // XDRS_PERFBENCH_WORKLOADS_HPP
