// The parallel sweep engine.
//
// The simulator is single-threaded by design (determinism beats parallel
// speed for a scheduling study); experiments scale instead by parallelising
// across parameter points.  ExperimentRunner takes a grid of ScenarioSpecs,
// materialises an independent HybridSwitchFramework per point on a pool of
// worker threads, and collects the RunReports *in grid order* — so for a
// fixed grid and seeds, every emitted byte is identical whether the sweep
// ran on 1 thread or 64, and regardless of completion order.
//
// Each point's canonical identity (ScenarioSpec::identity_json) decides
// what actually runs.  Points that differ only in a policy kind their
// discipline does not consume — the matcher axis of a hybrid-epoch grid,
// the circuit axis of a slotted one — share one identity, and run() simulates
// each identity once: the first point of it in grid order does the cache
// lookup and, on a miss, the simulation and the store; every later point
// of it copies that report and reads as `cached`.  The 960-point
// policy-cross preset is 80 simulations.  The copies are the same bytes
// the simulation would give, so artefacts do not change, at any thread
// count.
//
// Two scale-out mechanisms ride on that determinism:
//   * A static shard (ShardOptions) runs one slice of the grid per process:
//     point i belongs to shard i % count.  Per-shard results serialize with
//     to_shard_json() and SweepResult::merge_shards() reassembles the full
//     grid-order result, byte-identical to a single-process run.
//     A shard deduplicates only within the points it owns.
//   * A ResultCache (exp/cache.hpp) skips points whose reports are already
//     on disk, making iteration on one axis cheap.  Every simulated point
//     is stored the moment it finishes, so rerunning a killed shard with
//     the same cache recomputes only the point that was in flight.  Only
//     the first point of each identity touches the cache.
#ifndef XDRS_EXP_RUNNER_HPP
#define XDRS_EXP_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "stats/table.hpp"

namespace xdrs::exp {

class ResultCache;

/// Deterministic shard-by-index slice of a grid: this process owns point i
/// iff i % count == index.  The default {0, 1} owns everything.
struct ShardOptions {
  std::size_t index{0};
  std::size_t count{1};

  [[nodiscard]] bool owns(std::size_t i) const noexcept { return i % count == index; }
  /// Points of an n-point grid this shard owns.
  [[nodiscard]] std::size_t owned_of(std::size_t n) const noexcept {
    return n / count + (n % count > index ? 1 : 0);
  }
};

/// Everything that shapes one sweep's execution — threads, shard, cache,
/// telemetry — in one value.
struct ExecutionPlan {
  /// Worker threads; 0 = one per hardware thread.
  unsigned threads{0};
  /// Which points this process runs (default: the whole grid).  run()
  /// throws std::invalid_argument naming the bad field when shard.count is
  /// 0 or shard.index is out of range.
  ShardOptions shard{};
  /// Optional result cache: points whose reports are cached are not
  /// simulated (cache->stats() says how many), fresh reports are stored
  /// best-effort (a failing cache directory never aborts the sweep).  Only
  /// the first point of each identity looks up or stores an entry.
  ResultCache* cache{nullptr};
  /// When nonempty, every point this process actually simulates runs with
  /// telemetry enabled and writes a `<spec_hash_hex>.telemetry.json`
  /// sidecar (obs::telemetry_sidecar_json) into this directory, created on
  /// demand.  Cache hits write no sidecar — their compute never happened
  /// here, and neither do points copied from an earlier point with the
  /// same identity.  Sidecars ride BESIDE the result artefacts: reports, cache
  /// entries and shard files are byte-identical with this set or not
  /// (CI-gated), and writes are best-effort like cache stores.
  std::string telemetry_dir;
  /// Optional progress callback, invoked after each completed point with
  /// (completed, points the shard owns, point).  Called from worker threads
  /// under a lock, then — for the points copied from an earlier point with
  /// the same identity — from the calling thread in grid order after the
  /// pool drains; completion order is nondeterministic, so route it to
  /// stderr/logging, never into result artefacts.
  std::function<void(std::size_t, std::size_t, const ScenarioSpec&)> progress;
};

/// One grid point: the spec that was run and what came back.
struct PointResult {
  ScenarioSpec spec;
  core::RunReport report;
  /// Index of this point in the full grid; to_shard_json() records it so
  /// merges reassemble grid order from any set of shards.
  std::size_t index{0};
  /// Wall-clock microseconds this point took in this process (simulation,
  /// or the cache round-trip that replaced it — cached points read as ~0,
  /// points copied from an earlier point with the same identity as 0).
  /// Recorded in shard files so merges and `sweepctl status` can report
  /// straggler shards; deliberately NOT part of to_json()/to_csv(), which
  /// must stay byte-identical across thread counts and machines.
  std::int64_t wall_us{0};
  /// True when the point was served without a simulation here: from the
  /// cache or from an earlier point with the same identity.  Shard files
  /// carry it so `sweepctl status` can split cache round-trips from real
  /// compute when attributing shard wall time; like wall_us it never enters
  /// to_json()/to_csv().
  bool cached{false};
};

/// Results of one sweep: the points this run computed, in grid order.  For
/// an unsharded run that is the whole grid; for a sharded run it is the
/// subsequence the shard owns (each point carries its grid index).
class SweepResult {
 public:
  std::vector<PointResult> points;
  ShardOptions shard{};
  std::size_t grid_size{0};  ///< full grid size (== points.size() iff complete)

  /// Totals: every held point's report folded into one.
  [[nodiscard]] core::RunReport merged() const;

  /// Deterministic artefact emits.  Columns/keys are the specs' identity
  /// fields followed by the reports' fields; rows are in grid order.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;  ///< {"points":[...],"merged":{...}}

  /// Markdown table of selected columns (by field name) for bench output.
  [[nodiscard]] stats::Table table(const std::vector<std::string>& columns) const;

  // ---- sharded-sweep reassembly -------------------------------------------

  /// Exact-state shard file: every held point's grid index, spec hash and
  /// full report state.  merge_shards() consumes these.
  [[nodiscard]] std::string to_shard_json() const;

  /// Reassembles shard payloads (to_shard_json() outputs) produced from the
  /// same `grid` into one complete result — equal, byte for byte through
  /// to_json()/to_csv(), to what a single-process run of `grid` returns.
  /// Throws std::invalid_argument on schema/grid mismatches, points not in
  /// `grid` (stale shard files), duplicate or missing points.
  [[nodiscard]] static SweepResult merge_shards(const std::vector<ScenarioSpec>& grid,
                                                const std::vector<std::string>& shard_jsons);
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExecutionPlan plan = {}) : plan_{std::move(plan)} {}

  /// Runs every point of `grid` the plan's shard owns, simulating each
  /// canonical identity once (see the file comment).  Exceptions thrown
  /// by a point (unknown policy names, config errors) are rethrown on the
  /// calling thread after the pool drains.  Throws std::invalid_argument on
  /// a malformed shard (ExecutionPlan::shard).
  [[nodiscard]] SweepResult run(const std::vector<ScenarioSpec>& grid) const;

 private:
  ExecutionPlan plan_;
};

// ------------------------------------------------------- grid construction

/// A grid axis: each mutator stamps one axis value onto a spec copy.
using Mutator = std::function<void(ScenarioSpec&)>;

/// Cartesian expansion: every spec in `in` times every mutator in `axis`.
[[nodiscard]] std::vector<ScenarioSpec> expand(const std::vector<ScenarioSpec>& in,
                                               const std::vector<Mutator>& axis);

/// Convenience axes for the common sweep dimensions.
[[nodiscard]] std::vector<Mutator> axis_ports(const std::vector<std::uint32_t>& values);
[[nodiscard]] std::vector<Mutator> axis_load(const std::vector<double>& values);
[[nodiscard]] std::vector<Mutator> axis_matcher(const std::vector<std::string>& specs);
[[nodiscard]] std::vector<Mutator> axis_circuit(const std::vector<std::string>& specs);
[[nodiscard]] std::vector<Mutator> axis_estimator(const std::vector<std::string>& specs);
[[nodiscard]] std::vector<Mutator> axis_timing(const std::vector<std::string>& models);
[[nodiscard]] std::vector<Mutator> axis_seed(const std::vector<std::uint64_t>& seeds);
[[nodiscard]] std::vector<Mutator> axis_racks(const std::vector<std::uint32_t>& values);
[[nodiscard]] std::vector<Mutator> axis_oversubscription(const std::vector<double>& values);
[[nodiscard]] std::vector<Mutator> axis_locality(const std::vector<double>& values);

}  // namespace xdrs::exp

#endif  // XDRS_EXP_RUNNER_HPP
