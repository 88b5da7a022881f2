// Tests for the parallel sweep engine: grid construction, grid-order result
// collection, error propagation, and the core guarantee — a fixed seed grid
// yields bit-identical serialized results for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "exp/runner.hpp"

namespace xdrs::exp {
namespace {

using namespace xdrs::sim::literals;

std::vector<ScenarioSpec> small_grid() {
  std::vector<ScenarioSpec> grid{
      make_scenario("uniform", 4, 0.5, 7).with_window(500_us, 100_us),
      make_scenario("permutation", 4, 0.5, 7).with_window(500_us, 100_us)};
  grid = expand(grid, axis_load({0.3, 0.6}));
  grid = expand(grid, axis_matcher({"islip:1", "maxweight"}));
  return grid;  // 2 x 2 x 2 = 8 points
}

TEST(Expand, BuildsTheCartesianProductInAxisMajorOrder) {
  const auto grid = small_grid();
  ASSERT_EQ(grid.size(), 8u);
  EXPECT_EQ(grid[0].key(), "uniform/slotted/islip:1/solstice/instantaneous/hardware/p4/l0.3/s7");
  EXPECT_EQ(grid[1].key(), "uniform/slotted/maxweight/solstice/instantaneous/hardware/p4/l0.3/s7");
  EXPECT_EQ(grid[2].key(), "uniform/slotted/islip:1/solstice/instantaneous/hardware/p4/l0.6/s7");
  EXPECT_EQ(grid[7].key(), "permutation/slotted/maxweight/solstice/instantaneous/hardware/p4/l0.6/s7");
  EXPECT_THROW((void)expand(grid, {}), std::invalid_argument);
}

TEST(ExperimentRunner, ResultsArriveInGridOrder) {
  const auto grid = small_grid();
  const SweepResult res = ExperimentRunner{}.run(grid);
  ASSERT_EQ(res.points.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(res.points[i].spec.key(), grid[i].key());
    EXPECT_GT(res.points[i].report.offered_packets, 0u);
  }
}

TEST(ExperimentRunner, OneThreadAndManyThreadsAreBitIdentical) {
  const auto grid = small_grid();
  ExecutionPlan one;
  one.threads = 1;
  ExecutionPlan many;
  many.threads = 4;
  const SweepResult a = ExperimentRunner{one}.run(grid);
  const SweepResult b = ExperimentRunner{many}.run(grid);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.merged().to_json(), b.merged().to_json());
}

TEST(ExperimentRunner, MergedEqualsFoldOverPoints) {
  const SweepResult res = ExperimentRunner{}.run(small_grid());
  core::RunReport fold;
  for (const auto& p : res.points) fold.merge(p.report);
  EXPECT_EQ(res.merged().to_json(), fold.to_json());
  EXPECT_GE(fold.offered_packets, res.points.front().report.offered_packets);
}

TEST(ExperimentRunner, ProgressSeesEveryPoint) {
  std::atomic<std::size_t> calls{0};
  ExecutionPlan opts;
  opts.threads = 2;
  opts.progress = [&calls](std::size_t done, std::size_t total, const ScenarioSpec&) {
    ++calls;
    EXPECT_LE(done, total);
  };
  const auto grid = small_grid();
  (void)ExperimentRunner{opts}.run(grid);
  EXPECT_EQ(calls.load(), grid.size());
}

TEST(ExperimentRunner, PointErrorsPropagateToTheCaller) {
  auto grid = small_grid();
  grid[3].policies.estimator = "psychic";
  EXPECT_THROW((void)ExperimentRunner{}.run(grid), std::invalid_argument);
}

TEST(ExperimentRunner, EmptyGridIsEmptyResult) {
  const SweepResult res = ExperimentRunner{}.run({});
  EXPECT_TRUE(res.points.empty());
  EXPECT_EQ(res.merged().offered_packets, 0u);
}

// ---- one simulation per canonical identity ---------------------------------

/// 3 matchers x 2 circuits on a hybrid scenario: the matcher is never
/// built, so 6 points are 2 identities (one per circuit).
std::vector<ScenarioSpec> hybrid_cross() {
  std::vector<ScenarioSpec> grid{make_scenario("flows", 4, 0.5, 7).with_window(500_us, 100_us)};
  grid = expand(grid, axis_matcher({"islip:1", "maxweight", "pim:1"}));
  grid = expand(grid, axis_circuit({"solstice", "cthrough"}));
  return grid;
}

/// 2 matchers x 3 circuits on a slotted scenario: 2 identities (one per
/// matcher).
std::vector<ScenarioSpec> slotted_cross() {
  std::vector<ScenarioSpec> grid{make_scenario("uniform", 4, 0.5, 7).with_window(500_us, 100_us)};
  grid = expand(grid, axis_matcher({"islip:1", "maxweight"}));
  grid = expand(grid, axis_circuit({"solstice", "cthrough", "bvn:4"}));
  return grid;
}

std::size_t simulated(const SweepResult& res) {
  return static_cast<std::size_t>(std::count_if(
      res.points.begin(), res.points.end(), [](const PointResult& p) { return !p.cached; }));
}

TEST(ExperimentRunner, SimulatesEachIdentityOnce) {
  // Both grids are matcher-major.  The first point of each identity in
  // grid order leads: hybrid_cross() points 0 and 1 (islip:1 with each
  // circuit), slotted_cross() points 0 and 3 (each matcher with solstice).
  struct Case {
    std::vector<ScenarioSpec> grid;
    std::vector<bool> leads;
  };
  for (const Case& c : {Case{hybrid_cross(), {true, true, false, false, false, false}},
                        Case{slotted_cross(), {true, false, false, true, false, false}}}) {
    const auto& grid = c.grid;
    ASSERT_EQ(grid.size(), c.leads.size());
    std::size_t progress_calls = 0;
    ExecutionPlan one;
    one.threads = 1;
    one.progress = [&progress_calls](std::size_t, std::size_t, const ScenarioSpec&) {
      ++progress_calls;
    };
    const SweepResult a = ExperimentRunner{one}.run(grid);
    ASSERT_EQ(a.points.size(), grid.size());
    EXPECT_EQ(simulated(a), 2u) << grid[0].key();
    EXPECT_GT(a.points[0].report.offered_packets, 0u) << grid[0].key();
    EXPECT_EQ(progress_calls, grid.size());
    // Leaders simulate; the rest are copies served in no time, and every
    // report is what the point's own spec gives.
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(a.points[i].index, i);
      EXPECT_EQ(a.points[i].spec.key(), grid[i].key());
      EXPECT_EQ(a.points[i].cached, !c.leads[i]) << grid[i].key();
      if (!c.leads[i]) {
        EXPECT_EQ(a.points[i].wall_us, 0) << grid[i].key();
      }
      EXPECT_EQ(a.points[i].report.to_json(), run_scenario(grid[i]).to_json()) << grid[i].key();
    }

    ExecutionPlan many;
    many.threads = 4;
    const SweepResult b = ExperimentRunner{many}.run(grid);
    EXPECT_EQ(a.to_json(), b.to_json());
    EXPECT_EQ(a.to_csv(), b.to_csv());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(b.points[i].cached, !c.leads[i]) << i;
    }
  }
}

TEST(ExperimentRunner, ShardsDeduplicateWithinTheirOwnPoints) {
  // Shard 0/2 owns points 0, 2, 4 (all solstice), shard 1/2 owns 1, 3, 5
  // (all cthrough): one simulation each, and the merge is the whole run.
  const auto grid = hybrid_cross();
  std::vector<std::string> shard_files;
  for (std::size_t index = 0; index < 2; ++index) {
    ExecutionPlan plan;
    plan.shard = {index, 2};
    const SweepResult part = ExperimentRunner{plan}.run(grid);
    ASSERT_EQ(part.points.size(), 3u);
    EXPECT_EQ(simulated(part), 1u) << index;
    shard_files.push_back(part.to_shard_json());
  }
  EXPECT_EQ(SweepResult::merge_shards(grid, shard_files).to_json(),
            ExperimentRunner{}.run(grid).to_json());
}

TEST(SweepResult, TableSelectsColumnsByFieldName) {
  const SweepResult res = ExperimentRunner{}.run(
      {make_scenario("uniform", 4, 0.5, 7).with_window(500_us, 100_us)});
  const stats::Table t = res.table({"label", "delivery_ratio", "no_such_field"});
  const std::string md = t.markdown();
  EXPECT_NE(md.find("uniform/slotted/islip:2/solstice/instantaneous/hardware/p4/l0.5/s7"), std::string::npos);
  EXPECT_NE(md.find("no_such_field"), std::string::npos);
}

}  // namespace
}  // namespace xdrs::exp
