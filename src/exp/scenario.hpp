// Declarative experiment points.
//
// A ScenarioSpec is a copyable, value-typed description of ONE experiment:
// the switch (FrameworkConfig), the workloads (topo::WorkloadSpec list plus
// optional VOIP overlay), the policy stack (core::PolicyStack — every
// component chosen by PolicyRegistry spec string), the seed and the
// measurement window.  materialize_fat_tree() turns a spec into a
// ready-to-run topo::FatTree (a single switch is its one-rack case);
// run_scenario() runs it to a RunReport.
//
// The scenario registry maps workload names ("uniform", "permutation",
// "incast", "shuffle", "hotspot", "voip", ...) to base specs, so benches,
// examples and sweeps select scenarios the way they already select matchers:
// by string.  New scenarios are one register_scenario() call.
#ifndef XDRS_EXP_SCENARIO_HPP
#define XDRS_EXP_SCENARIO_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "stats/serialize.hpp"
#include "topo/fat_tree.hpp"
#include "topo/testbed.hpp"

namespace xdrs::exp {

struct ScenarioSpec {
  /// Registry name this spec was built from ("uniform", "incast", ...).
  std::string scenario{"uniform"};
  /// Point label for reports; empty means "derive from key()".
  std::string label;

  core::FrameworkConfig config{};
  /// Topology the point runs on.  Default (1 rack) is the single switch
  /// every pre-topology scenario ran, as a one-rack topo::FatTree.
  /// Multi-rack specs give each ToR `config.ports` HOST ports plus derived
  /// uplinks.
  topo::TopologySpec topology{};
  std::vector<topo::WorkloadSpec> workloads;

  // Optional latency-sensitive CBR overlay (topo::attach_voip).
  std::uint32_t voip_pairs{0};
  sim::Time voip_period{sim::Time::microseconds(20)};
  std::int64_t voip_packet_bytes{200};

  /// Policy stack, selected by PolicyRegistry spec strings; constructed by
  /// materialize*() through HybridSwitchFramework::set_policies.
  core::PolicyStack policies;

  sim::Time duration{sim::Time::milliseconds(10)};
  sim::Time warmup{sim::Time::milliseconds(2)};

  /// Composes several scenarios into one multi-workload spec: the first
  /// part anchors the switch config, policy stack and window; every part's
  /// workloads are concatenated with their loads scaled by that part's
  /// `share` (shares normally sum to 1, so the composite sweeps as one load
  /// axis); VOIP overlays are merged (largest pair count wins); workload
  /// seeds are re-spread so parts never correlate.  Throws
  /// std::invalid_argument on empty parts or a share-count mismatch.
  [[nodiscard]] static ScenarioSpec composite(std::string scenario,
                                              const std::vector<ScenarioSpec>& parts,
                                              const std::vector<double>& shares);

  // ---- fluent mutators for grid construction ------------------------------
  /// Sets the port count and re-derives ports-dependent workload fields
  /// (incast response sizes).
  ScenarioSpec& with_ports(std::uint32_t ports);
  /// Distributes `load` across the workloads by their share weights
  /// (normalised, so load() == load afterwards for any spec), re-deriving
  /// kinds that encode load indirectly: ON/OFF burst duty cycle (mean_off),
  /// incast response sizes, trace-replay time scaling.
  ScenarioSpec& with_load(double load);
  ScenarioSpec& with_policies(core::PolicyStack stack);
  ScenarioSpec& with_matcher(std::string spec);
  ScenarioSpec& with_circuit(std::string spec);
  ScenarioSpec& with_timing(std::string model);
  ScenarioSpec& with_estimator(std::string name);
  ScenarioSpec& with_seed(std::uint64_t seed);   ///< config and workload seeds
  ScenarioSpec& with_window(sim::Time duration, sim::Time warmup);
  ScenarioSpec& with_label(std::string label);
  // ---- topology axes ------------------------------------------------------
  ScenarioSpec& with_racks(std::uint32_t racks);
  ScenarioSpec& with_oversubscription(double ratio);
  /// Sets every workload's rack-locality fraction (fat-tree placement).
  ScenarioSpec& with_locality(double locality);

  /// Total requested load — the sum of the workloads' loads (for a single
  /// workload, its load; for composites whose shares sum to 1, the value
  /// last passed to with_load()) — the conventional x-axis of load sweeps.
  [[nodiscard]] double load() const noexcept;

  /// The load the spec actually runs at: like load(), but with each
  /// workload's value re-derived from the parameters the simulation uses
  /// (ON/OFF duty cycle from the burst means, incast from the floored
  /// response size), so clamping in the derivation is visible, never silent.
  [[nodiscard]] double effective_load() const noexcept;

  /// Share-weighted average of the workloads' locality fractions — the
  /// placement axis value artefacts record.  1.0 for an empty spec (all
  /// traffic rack-local, the single-switch behaviour).
  [[nodiscard]] double locality() const noexcept;

  /// Canonical point key, e.g.
  /// "uniform/slotted/islip:4/solstice/instantaneous/hardware/p8/l0.5/s7"
  /// — the scenario, the discipline, the FULL policy stack (matching
  /// core::PolicyStack's rendering), ports, load (shortest form, full
  /// precision) and seed.  Used as the default label and as the
  /// deterministic identity in serialized sweeps: points differing in any
  /// of THOSE axes — everything the built-in grid axes mutate — never
  /// share a key (test_presets asserts this for every preset).  Specs
  /// distinguished only by other knobs (window, share splits, trace
  /// content, raw config edits) need with_label(); the result cache keys
  /// on the exhaustive identity_json(), never on key().
  [[nodiscard]] std::string key() const;

  /// Self-describing identity fields (prepended to the report's fields in
  /// sweep CSV/JSON emits).
  [[nodiscard]] std::vector<stats::Field> fields() const;

  /// Exhaustive canonical rendering of everything behaviour-affecting in
  /// the spec: fields() plus every FrameworkConfig knob, the full workload
  /// parameter lists and the VOIP overlay.  The result-cache key and the
  /// shard-file cross-check hash THIS, not fields(), so two specs share a
  /// cache entry only when they would run the identical simulation.
  ///
  /// It is the point's canonical identity: a policy kind the discipline
  /// does not consume (core::consumes — the matcher of a hybrid-epoch
  /// switch, the circuit scheduler of a slotted one) renders as '-' in the
  /// matcher/circuit fields and in a key()-derived label, because it is
  /// never built.  Points that differ only there share one identity, and
  /// ExperimentRunner simulates each identity once per sweep.  key(),
  /// fields() and the artefact columns keep the requested stack.
  [[nodiscard]] std::string identity_json() const;
};

/// The load one workload actually offers under `cfg`, re-derived from the
/// parameters the simulation consumes: ON/OFF bursts report the duty cycle
/// implied by mean_on/mean_off (which rederivation clamps to [0.05, 0.95]),
/// incast reports the aggregator-downlink load implied by the (floored)
/// response size, everything else reports `w.load` as-is.
[[nodiscard]] double effective_workload_load(const topo::WorkloadSpec& w,
                                             const core::FrameworkConfig& cfg) noexcept;

/// Builds the bare framework a spec describes: configuration, policy stack
/// and workloads, ready for run().  Throws std::invalid_argument on unknown
/// policy or scenario names.  Single-switch view for benches that drive one
/// switch directly; experiment points run through materialize_fat_tree().
[[nodiscard]] std::unique_ptr<core::HybridSwitchFramework> materialize(const ScenarioSpec& spec);

/// Builds the fat-tree a spec describes: per-rack frameworks with the
/// spec's policies, workloads behind the placement transform (each
/// workload's own `locality`), and rack-local VOIP overlays.  Valid for any
/// rack count — a 1-rack tree reproduces materialize()'s run
/// byte-identically through the shared phased path.
[[nodiscard]] std::unique_ptr<topo::FatTree> materialize_fat_tree(const ScenarioSpec& spec);

/// materialize_fat_tree() + run(): the whole experiment point, one call.
[[nodiscard]] core::RunReport run_scenario(const ScenarioSpec& spec);

// ---------------------------------------------------------------- registry

/// Trace file the built-in "trace" scenario replays by default, relative to
/// the repository root (run trace sweeps from there, or point
/// `workloads[0].trace_path` somewhere else).
inline constexpr const char* kDefaultTracePath = "examples/example_trace.csv";

/// CDF files the built-in "websearch"/"datamining" scenarios sample by
/// default, relative to the repository root (run empirical sweeps from
/// there, or point `workloads[0].cdf_path` somewhere else).
inline constexpr const char* kWebsearchCdfPath = "examples/cdf_websearch.csv";
inline constexpr const char* kDataminingCdfPath = "examples/cdf_datamining.csv";

using ScenarioBuilder =
    std::function<ScenarioSpec(std::uint32_t ports, double load, std::uint64_t seed)>;

/// Registers a scenario under `name`.  Throws std::invalid_argument if the
/// name is already taken.  Built-in scenarios: uniform, hotspot, zipf,
/// permutation, onoff, flows, shuffle, incast, voip, trace (CSV flow-trace
/// replay; see traffic/trace_replay.hpp), websearch and datamining (flows
/// sized by the bundled empirical CDFs; see traffic/empirical_cdf.hpp) and
/// the composites incast+background, shuffle+voip, onoff+mice,
/// websearch+incast.
void register_scenario(const std::string& name, ScenarioBuilder builder);

/// Instantiates a registered scenario.  Throws std::invalid_argument on
/// unknown names (the message lists what is known).
[[nodiscard]] ScenarioSpec make_scenario(const std::string& name, std::uint32_t ports = 8,
                                         double load = 0.5, std::uint64_t seed = 7);

/// All registered names, sorted.
[[nodiscard]] std::vector<std::string> known_scenarios();

}  // namespace xdrs::exp

#endif  // XDRS_EXP_SCENARIO_HPP
