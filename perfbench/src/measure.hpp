// One process's measurement of one workload.
//
// measure_untraced() gives the end-to-end metrics: nothing but the
// library's own work runs between the clock reads.  measure_traced() is a
// separate run that gives the per-layer metrics: decorators, spans and
// isolated drives around the same points, plus an undecorated pass of the
// same points so its reports can be compared byte for byte and its wall
// used as the tracing-overhead base.
//
// Host numbers are wall time of this process; modelled numbers (decision
// latency, delivery) are simulated time and appear only as context.
#ifndef XDRS_PERFBENCH_MEASURE_HPP
#define XDRS_PERFBENCH_MEASURE_HPP

#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Options {
  Workload workload{Workload::kP128Uniform};
  std::uint64_t seed{kDefaultSeed};
  std::string repo_root{"."};
  /// Caches the workload's traffic seeds between the processes of one run:
  /// read when the file exists, written after searching otherwise.  Empty:
  /// always search.
  std::string inputs_path;
  /// Where the benchmark may create (and then removes) cache directories.
  std::string scratch_dir{"."};
  /// Committed digests in grid order; empty checks invariants only.
  std::vector<std::string> expected;
};

using Metrics = std::vector<std::pair<std::string, double>>;

struct Outcome {
  Metrics metrics;
  PointTally tally;
  std::string spans_json;  ///< traced runs only
};

[[nodiscard]] Outcome measure_untraced(const Options& opt);
[[nodiscard]] Outcome measure_traced(const Options& opt);

/// The workload's points at opt.seed (traffic_seeds() through
/// opt.inputs_path).
[[nodiscard]] std::vector<xdrs::exp::ScenarioSpec> resolve_grid(const Options& opt);


/// One point the way measure_untraced() runs it: materialize, then the
/// framework's phased run in two run_until calls, then finalize.
[[nodiscard]] xdrs::core::RunReport run_point(const xdrs::exp::ScenarioSpec& spec);

/// One point the way measure_traced() runs it: policy decorators installed
/// and the run advanced in short slices.
[[nodiscard]] xdrs::core::RunReport run_point_traced(const xdrs::exp::ScenarioSpec& spec);

}  // namespace perfbench

#endif  // XDRS_PERFBENCH_MEASURE_HPP
