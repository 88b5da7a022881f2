// Tests for the two-tier fat-tree: deterministic placement, single-rack
// degeneration to the single-switch run, the oversubscription property the
// topology exists to model, and sweep-level thread/shard invariance of the
// multi-rack path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/report_io.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "topo/fat_tree.hpp"

namespace xdrs {
namespace {

using namespace sim::literals;
using exp::ScenarioSpec;
using exp::make_scenario;
using topo::Placement;
using topo::place_flow;
using topo::TopologySpec;

// ---- placement -------------------------------------------------------------

TEST(Placement, IsAPureFunctionOfItsArguments) {
  // Same inputs, same answer — placement carries no stream state, so the
  // host->rack assignment cannot depend on thread count, shard split or
  // call order.
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    const Placement a = place_flow(7, 1, 3, 5, flow, 0.5, 4, 8);
    const Placement b = place_flow(7, 1, 3, 5, flow, 0.5, 4, 8);
    EXPECT_EQ(a.remote, b.remote);
    EXPECT_EQ(a.dst_rack, b.dst_rack);
    EXPECT_EQ(a.uplink, b.uplink);
  }
}

TEST(Placement, LocalityExtremesAndRangeInvariants) {
  for (std::uint64_t flow = 0; flow < 256; ++flow) {
    // locality 1.0: nothing ever leaves the rack.
    EXPECT_FALSE(place_flow(7, 0, 1, 2, flow, 1.0, 4, 8).remote);
    // locality 0.0: everything leaves, to a DIFFERENT rack, on a valid
    // uplink.
    const Placement p = place_flow(7, 2, 1, 2, flow, 0.0, 4, 8);
    EXPECT_TRUE(p.remote);
    EXPECT_NE(p.dst_rack, 2u);
    EXPECT_LT(p.dst_rack, 4u);
    EXPECT_LT(p.uplink, 8u);
  }
}

TEST(Placement, LocalityFractionIsApproximatelyHonoured) {
  const double locality = 0.7;
  int local = 0;
  const int n = 4000;
  for (int flow = 0; flow < n; ++flow) {
    if (!place_flow(7, 1, 3, 5, static_cast<std::uint64_t>(flow), locality, 4, 8).remote) {
      ++local;
    }
  }
  EXPECT_NEAR(static_cast<double>(local) / n, locality, 0.03);
}

TEST(Placement, SeedAndLocalityChangeTheAssignment) {
  // Different seeds draw different assignments for at least some flows, and
  // the keep-local draw is monotone in locality: any flow local at 0.3
  // stays local at 0.9 (same hash, larger threshold).
  int differs = 0;
  for (std::uint64_t flow = 0; flow < 256; ++flow) {
    const Placement a = place_flow(7, 0, 1, 2, flow, 0.5, 4, 8);
    const Placement b = place_flow(8, 0, 1, 2, flow, 0.5, 4, 8);
    if (a.remote != b.remote || a.dst_rack != b.dst_rack) ++differs;
    if (!place_flow(7, 0, 1, 2, flow, 0.3, 4, 8).remote) {
      EXPECT_FALSE(place_flow(7, 0, 1, 2, flow, 0.9, 4, 8).remote);
    }
  }
  EXPECT_GT(differs, 0);
}

TEST(TopologySpecTest, UplinkDerivationFollowsOversubscription) {
  TopologySpec t;
  EXPECT_EQ(t.uplinks(8), 8u);  // full bisection
  t.oversubscription = 2.0;
  EXPECT_EQ(t.uplinks(8), 4u);
  t.oversubscription = 16.0;
  EXPECT_EQ(t.uplinks(8), 1u);  // never below 1
  EXPECT_FALSE(t.multi_rack());
  t.racks = 2;
  EXPECT_TRUE(t.multi_rack());
}

// ---- single-rack degeneration ----------------------------------------------

TEST(FatTreeRun, SingleRackReproducesTheSingleSwitchRunByteForByte) {
  const ScenarioSpec spec = make_scenario("uniform", 8, 0.7, 7).with_window(1_ms, 200_us);
  // A bare framework: run_scenario() itself runs through the tree.
  const core::RunReport plain = exp::materialize(spec)->run(spec.duration, spec.warmup);

  auto ft = exp::materialize_fat_tree(spec);
  ASSERT_EQ(ft->racks(), 1u);
  ASSERT_EQ(ft->uplink_ports(), 0u);
  const core::RunReport tree = ft->run(spec.duration, spec.warmup);

  EXPECT_EQ(core::report_state_json(tree), core::report_state_json(plain));
}

// ---- multi-rack runs -------------------------------------------------------

ScenarioSpec two_rack_spec(double locality, double oversub) {
  return make_scenario("uniform", 8, 0.7, 7)
      .with_window(1_ms, 200_us)
      .with_racks(2)
      .with_oversubscription(oversub)
      .with_locality(locality);
}

TEST(FatTreeRun, PerHopMetricsArePopulatedOnEveryMultiRackPoint) {
  const core::RunReport r = exp::run_scenario(two_rack_spec(0.5, 1.0));
  EXPECT_GT(r.intra_rack_bytes, 0);
  EXPECT_GT(r.cross_rack_bytes, 0);
  EXPECT_GT(r.core_link_bytes, 0);
  EXPECT_GT(r.core_utilization, 0.0);
  // Delivered bytes split exactly into the two hop classes.
  EXPECT_EQ(r.intra_rack_bytes + r.cross_rack_bytes, r.delivered_bytes);
}

// Classification must never retarget a packet: local and cross-rack packets
// of one host pair share a 5-tuple but not a destination port.  With
// host-side buffering, ingest classifies and enqueues in one step, so each
// rack's trace records every arrival followed by its enqueue (or drop),
// whose output port must be the one placement chose.
TEST(FatTreeRun, EveryCrossRackPacketLeavesByAnUplinkAndArrivesAtItsFinalDst) {
  ScenarioSpec spec = two_rack_spec(0.5, 1.0);
  spec.config.placement = core::BufferPlacement::kHost;
  auto ft = exp::materialize_fat_tree(spec);
  for (std::uint32_t r = 0; r < ft->racks(); ++r) ft->rack(r).trace().enable();
  (void)ft->run(spec.duration, spec.warmup);

  const std::uint32_t hosts = ft->host_ports();
  std::uint64_t to_uplink = 0, from_uplink = 0;
  for (std::uint32_t r = 0; r < ft->racks(); ++r) {
    const auto& events = ft->rack(r).trace().events();
    ASSERT_EQ(ft->rack(r).trace().dropped(), 0u);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].category != sim::TraceCategory::kPacketArrival) continue;
      std::size_t j = i + 1;  // a VOQ's first packet raises a request first
      while (j < events.size() && events[j].category == sim::TraceCategory::kRequest) ++j;
      ASSERT_LT(j, events.size());
      const sim::TraceEvent& next = events[j];
      ASSERT_TRUE(next.category == sim::TraceCategory::kEnqueue ||
                  next.category == sim::TraceCategory::kDrop)
          << "rack " << r << " event " << i;
      ASSERT_EQ(next.a, events[i].a) << "rack " << r << " event " << i;
      ASSERT_EQ(next.b, events[i].b) << "rack " << r << " event " << i << ": input "
                                     << events[i].a << " retargeted";
      if (events[i].a >= hosts) {
        // Reinjected from the core: bound for a host port of this rack.
        ++from_uplink;
        EXPECT_LT(events[i].b, hosts);
      } else if (events[i].b >= hosts) {
        ++to_uplink;
      }
    }
  }
  EXPECT_GT(to_uplink, 1000u);
  EXPECT_GT(from_uplink, 1000u);
}

TEST(FatTreeRun, FlowLevelWorkloadsSplitCompletionTimesByHopClass) {
  // "uniform" is packet-level (no flows, no FCTs); a flow-level scenario
  // records every completed flow into exactly one of the locality buckets.
  const ScenarioSpec spec = make_scenario("flows", 8, 0.7, 7)
                                .with_window(1_ms, 200_us)
                                .with_racks(2)
                                .with_locality(0.5);
  const core::RunReport r = exp::run_scenario(spec);
  EXPECT_GT(r.fct_intra_rack.count(), 0u);
  EXPECT_GT(r.fct_cross_rack.count(), 0u);
  // Both splits partition the same completed-flow population.
  EXPECT_EQ(r.fct_intra_rack.count() + r.fct_cross_rack.count(),
            r.fct_deadline.count() + r.fct_other.count());
}

TEST(FatTreeRun, MultiRackRunsAreDeterministic) {
  const core::RunReport a = exp::run_scenario(two_rack_spec(0.5, 2.0));
  const core::RunReport b = exp::run_scenario(two_rack_spec(0.5, 2.0));
  EXPECT_EQ(core::report_state_json(a), core::report_state_json(b));
}

TEST(FatTreeRun, OversubscriptionCapsCrossRackGoodputNotIntraRack) {
  // Mostly-remote traffic at high load: at 8:1 oversubscription the two
  // ToRs funnel ~80% of their offered load through a single uplink column
  // each, so cross-rack goodput must drop well below full bisection's,
  // while rack-local traffic — which never touches an uplink — stays in
  // the same ballpark.
  const ScenarioSpec full = two_rack_spec(0.2, 1.0).with_load(0.9);
  const ScenarioSpec tight = two_rack_spec(0.2, 8.0).with_load(0.9);
  const core::RunReport rf = exp::run_scenario(full);
  const core::RunReport rt = exp::run_scenario(tight);

  EXPECT_LT(rt.cross_rack_bytes, rf.cross_rack_bytes * 0.7);
  const double intra_ratio = static_cast<double>(rt.intra_rack_bytes) /
                             static_cast<double>(rf.intra_rack_bytes);
  EXPECT_GT(intra_ratio, 0.7);
  EXPECT_LT(intra_ratio, 1.3);
}

// ---- sweep invariance ------------------------------------------------------

std::vector<ScenarioSpec> small_ft_grid() {
  std::vector<ScenarioSpec> grid{
      make_scenario("uniform", 8, 0.7, 7).with_window(1_ms, 200_us).with_racks(2)};
  grid = exp::expand(grid, exp::axis_oversubscription({1.0, 2.0}));
  grid = exp::expand(grid, exp::axis_locality({0.5, 0.9}));
  return grid;  // 4 points, all multi-rack
}

TEST(FatTreeSweep, ThreadCountDoesNotChangeTheBytes) {
  const auto grid = small_ft_grid();
  exp::ExecutionPlan one;
  one.threads = 1;
  exp::ExecutionPlan four;
  four.threads = 4;
  const std::string a = exp::ExperimentRunner{one}.run(grid).to_json();
  const std::string b = exp::ExperimentRunner{four}.run(grid).to_json();
  EXPECT_EQ(a, b);
}

TEST(FatTreeSweep, TwoShardMergeMatchesTheUnshardedRun) {
  const auto grid = small_ft_grid();
  const std::string whole = exp::ExperimentRunner{}.run(grid).to_json();

  std::vector<std::string> shard_jsons;
  for (std::size_t i = 0; i < 2; ++i) {
    exp::ExecutionPlan opts;
    opts.shard = {i, 2};
    shard_jsons.push_back(exp::ExperimentRunner{opts}.run(grid).to_shard_json());
  }
  const exp::SweepResult merged = exp::SweepResult::merge_shards(grid, shard_jsons);
  EXPECT_EQ(merged.to_json(), whole);
}

}  // namespace
}  // namespace xdrs
