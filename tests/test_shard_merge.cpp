// Tests for sharded sweeps: deterministic shard-by-index ownership, shard
// file round-trip, and the reassembly guarantee — merge_shards() of per-shard
// results is byte-identical through to_json()/to_csv() to a single-process
// run of the same grid.
#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/runner.hpp"
#include "stats/json.hpp"

namespace xdrs::exp {
namespace {

using namespace xdrs::sim::literals;

std::vector<ScenarioSpec> small_grid() {
  std::vector<ScenarioSpec> grid{
      make_scenario("uniform", 4, 0.5, 7).with_window(500_us, 100_us),
      make_scenario("permutation", 4, 0.5, 7).with_window(500_us, 100_us)};
  grid = expand(grid, axis_load({0.3, 0.6}));
  grid = expand(grid, axis_matcher({"islip:1", "maxweight"}));
  return grid;  // 8 points
}

SweepResult run_shard(const std::vector<ScenarioSpec>& grid, std::size_t index,
                      std::size_t count) {
  ExecutionPlan opts;
  opts.source.shard = {index, count};
  return ExperimentRunner{opts}.run(grid);
}

TEST(ShardOptions, OwnershipPartitionsTheGrid) {
  const ShardOptions a{0, 3};
  const ShardOptions b{1, 3};
  const ShardOptions c{2, 3};
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ((a.owns(i) ? 1 : 0) + (b.owns(i) ? 1 : 0) + (c.owns(i) ? 1 : 0), 1) << i;
  }
  EXPECT_EQ(a.owned_of(10), 4u);  // 0,3,6,9
  EXPECT_EQ(b.owned_of(10), 3u);  // 1,4,7
  EXPECT_EQ(c.owned_of(10), 3u);  // 2,5,8
  EXPECT_EQ(ShardOptions{}.owned_of(10), 10u);
}

TEST(ShardedRun, RunsExactlyTheOwnedSubsequenceInGridOrder) {
  const auto grid = small_grid();
  const SweepResult shard1 = run_shard(grid, 1, 3);
  ASSERT_EQ(shard1.points.size(), ShardOptions(1, 3).owned_of(grid.size()));
  for (std::size_t j = 0; j < shard1.points.size(); ++j) {
    EXPECT_EQ(shard1.points[j].spec.key(), grid[1 + j * 3].key());
    EXPECT_GT(shard1.points[j].report.offered_packets, 0u);
  }
  EXPECT_EQ(shard1.grid_size, grid.size());
}

TEST(ShardedRun, InvalidShardOptionsThrow) {
  ExecutionPlan zero;
  zero.source.shard = {0, 0};
  EXPECT_THROW((void)ExperimentRunner{zero}.run(small_grid()), std::invalid_argument);
  ExecutionPlan oob;
  oob.source.shard = {2, 2};
  EXPECT_THROW((void)ExperimentRunner{oob}.run(small_grid()), std::invalid_argument);
}

TEST(ShardMerge, TwoShardsReassembleByteIdenticalToOneProcess) {
  const auto grid = small_grid();
  ExecutionPlan single_opts;
  single_opts.threads = 1;
  const SweepResult single = ExperimentRunner{single_opts}.run(grid);

  const std::string payload0 = run_shard(grid, 0, 2).to_shard_json();
  const std::string payload1 = run_shard(grid, 1, 2).to_shard_json();
  const SweepResult merged = SweepResult::merge_shards(grid, {payload0, payload1});

  // The headline guarantee: the merged artefact is the single-process
  // artefact, byte for byte — points array, grid-total merge, CSV, all of it.
  EXPECT_EQ(merged.to_json(), single.to_json());
  EXPECT_EQ(merged.to_csv(), single.to_csv());
  EXPECT_EQ(merged.merged().to_json(), single.merged().to_json());
}

TEST(ShardMerge, UnevenShardCountsAlsoReassemble) {
  const auto grid = small_grid();  // 8 points across 3 shards: 3+3+2
  const SweepResult single = ExperimentRunner{}.run(grid);
  const SweepResult merged = SweepResult::merge_shards(
      grid, {run_shard(grid, 0, 3).to_shard_json(), run_shard(grid, 1, 3).to_shard_json(),
             run_shard(grid, 2, 3).to_shard_json()});
  EXPECT_EQ(merged.to_json(), single.to_json());
}

TEST(ShardMerge, ShardFileCarriesIndicesHashesAndState) {
  const auto grid = small_grid();
  const stats::JsonValue doc = stats::parse_json(run_shard(grid, 1, 2).to_shard_json());
  EXPECT_EQ(doc.at("sweep_schema").as_u64(), 1u);
  EXPECT_EQ(doc.at("schema_version").as_u64(), core::RunReport::kSchemaVersion);
  EXPECT_EQ(doc.at("shard_index").as_u64(), 1u);
  EXPECT_EQ(doc.at("shard_count").as_u64(), 2u);
  EXPECT_EQ(doc.at("grid_size").as_u64(), grid.size());
  const auto& points = doc.at("points").items();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].at("index").as_u64(), 1u);
  EXPECT_EQ(points[1].at("index").as_u64(), 3u);
  EXPECT_EQ(points[0].at("key").as_str(), grid[1].key());
  EXPECT_NE(points[0].at("report").find("latency_state"), nullptr);
  // Per-point wall time rides along for straggler reports (sweepctl
  // status); it never enters to_json()/to_csv(), which must stay
  // byte-identical across thread counts.
  EXPECT_GE(points[0].at("wall_us").as_i64(), 0);
}

TEST(ShardMerge, WallTimesSurviveMergeButNotTheArtefact) {
  const auto grid = small_grid();
  const SweepResult shard0 = run_shard(grid, 0, 2);
  const SweepResult shard1 = run_shard(grid, 1, 2);
  const SweepResult merged =
      SweepResult::merge_shards(grid, {shard0.to_shard_json(), shard1.to_shard_json()});
  std::int64_t total = 0;
  for (const PointResult& p : merged.points) total += p.wall_us;
  std::int64_t expected = 0;
  for (const PointResult& p : shard0.points) expected += p.wall_us;
  for (const PointResult& p : shard1.points) expected += p.wall_us;
  EXPECT_EQ(total, expected);
  EXPECT_GT(total, 0);  // a real simulation takes measurable wall time
  EXPECT_EQ(merged.to_json().find("wall_us"), std::string::npos);
  EXPECT_EQ(merged.to_csv().find("wall_us"), std::string::npos);

  // Both envelope fields are required: a shard entry missing either one is
  // rejected with the missing key named.
  for (const std::string field : {"wall_us", "cached"}) {
    std::string stripped = shard0.to_shard_json();
    const std::string prefix = ",\"" + field + "\":";
    for (std::size_t pos = 0; (pos = stripped.find(prefix)) != std::string::npos;) {
      stripped.erase(pos, stripped.find(',', pos + 1) - pos);
    }
    try {
      (void)SweepResult::merge_shards(grid, {stripped, shard1.to_shard_json()});
      ADD_FAILURE() << "merge accepted a shard file without " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(field), std::string::npos) << e.what();
    }
  }
}

TEST(ShardMerge, RejectsMissingDuplicateAndForeignPoints) {
  const auto grid = small_grid();
  const std::string payload0 = run_shard(grid, 0, 2).to_shard_json();
  const std::string payload1 = run_shard(grid, 1, 2).to_shard_json();

  // Missing coverage: one shard alone.
  EXPECT_THROW((void)SweepResult::merge_shards(grid, {payload0}), std::invalid_argument);
  // Duplicate coverage: the same shard twice.
  EXPECT_THROW((void)SweepResult::merge_shards(grid, {payload0, payload0}),
               std::invalid_argument);
  // Stale shard file: produced from a different grid (seed changed), the
  // spec hashes no longer match.
  auto other_grid = small_grid();
  for (auto& spec : other_grid) spec.with_seed(99);
  const std::string foreign = run_shard(other_grid, 0, 2).to_shard_json();
  EXPECT_THROW((void)SweepResult::merge_shards(grid, {foreign, payload1}),
               std::invalid_argument);
  // Grid size mismatch.
  const std::vector<ScenarioSpec> short_grid{grid.begin(), grid.begin() + 4};
  EXPECT_THROW((void)SweepResult::merge_shards(short_grid, {payload0, payload1}),
               std::invalid_argument);
  // Garbage payloads.
  EXPECT_THROW((void)SweepResult::merge_shards(grid, {"not json"}), std::invalid_argument);
  EXPECT_THROW((void)SweepResult::merge_shards(grid, {"{}"}), std::invalid_argument);
}

TEST(ShardMerge, SingleShardOfOneIsTheWholeSweep) {
  const auto grid = small_grid();
  const SweepResult single = ExperimentRunner{}.run(grid);
  const SweepResult merged =
      SweepResult::merge_shards(grid, {run_shard(grid, 0, 1).to_shard_json()});
  EXPECT_EQ(merged.to_json(), single.to_json());
}

}  // namespace
}  // namespace xdrs::exp
