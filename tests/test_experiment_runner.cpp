// Tests for the parallel sweep engine: grid construction, grid-order result
// collection, error propagation, and the core guarantee — a fixed seed grid
// yields bit-identical serialized results for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

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
