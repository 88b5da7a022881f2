// Tests of the benchmark itself: its checks catch a broken report, its
// traced run does not perturb results, its counts repeat exactly, and every
// workload passes its checks at a seed the expected digests never saw.
//
// Run with `python3 perfbench/run.py --selftest` from the repository root.
#include <filesystem>
#include <map>

#include <gtest/gtest.h>

#include "checks.hpp"
#include "measure.hpp"

namespace {

using perfbench::Workload;

/// A seed held out from the committed digests: invariants only.
constexpr std::uint64_t kHeldOutSeed = 1009;

perfbench::Options options(Workload w, std::uint64_t seed) {
  perfbench::Options opt;
  opt.workload = w;
  opt.seed = seed;
  opt.repo_root = PERFBENCH_REPO_ROOT;
  opt.scratch_dir = PERFBENCH_SCRATCH;
  std::filesystem::create_directories(opt.scratch_dir);
  return opt;
}

std::string expected_path(Workload w) {
  return std::string{PERFBENCH_REPO_ROOT} + "/perfbench/expected/" + perfbench::to_string(w) +
         ".txt";
}

xdrs::core::RunReport consistent_report() {
  xdrs::core::RunReport r;
  r.offered_packets = 2;
  r.offered_bytes = 3000;
  r.delivered_packets = 2;
  r.delivered_bytes = 3000;
  r.ocs_bytes = 1000;
  r.eps_bytes = 2000;
  r.class_bytes[1] = 3000;
  r.latency.record_time(xdrs::sim::Time::microseconds(3));
  r.latency.record_time(xdrs::sim::Time::microseconds(5));
  return r;
}

TEST(Checks, ConsistentReportPasses) {
  perfbench::PointTally tally;
  tally.check(0, consistent_report());
  EXPECT_EQ(tally.attempted(), 1u);
  EXPECT_EQ(tally.failed(), 0u);
}

TEST(Checks, TamperedReportCountsAsFailed) {
  xdrs::core::RunReport r = consistent_report();
  r.delivered_bytes = r.offered_bytes + 1;  // delivered > offered
  perfbench::PointTally tally;
  tally.check(0, r);
  EXPECT_EQ(tally.failed(), 1u);
  ASSERT_EQ(tally.errors().size(), 1u);
  EXPECT_NE(tally.errors()[0].find("delivered_bytes > offered_bytes"), std::string::npos);

  for (auto tamper : {+[](xdrs::core::RunReport& t) { t.ocs_bytes += 1; },
                      +[](xdrs::core::RunReport& t) { t.delivered_packets += 1; },
                      +[](xdrs::core::RunReport& t) { t.class_bytes[0] += 1; }}) {
    xdrs::core::RunReport bad = consistent_report();
    tamper(bad);
    EXPECT_FALSE(perfbench::invariant_violation(bad).empty());
  }
}

TEST(Checks, DigestMismatchAndThrowCountOncePerPoint) {
  perfbench::PointTally tally{{"0000000000000000"}};
  tally.check(0, consistent_report());
  tally.fail(0, "also differs elsewhere");
  tally.threw(1, "boom");
  EXPECT_EQ(tally.attempted(), 2u);
  EXPECT_EQ(tally.failed(), 2u);
}

TEST(Traced, ReportsMatchUntracedOnOnePointOfEachWorkload) {
  for (const Workload w : perfbench::all_workloads()) {
    const auto spec = perfbench::resolve_grid(options(w, perfbench::kDefaultSeed)).front();
    EXPECT_EQ(perfbench::run_point(spec).to_json(), perfbench::run_point_traced(spec).to_json())
        << perfbench::to_string(w);
  }
}

TEST(Traced, TwoRunsAtOneSeedGiveIdenticalDigestsAndCounts) {
  // Per-layer metrics that count work; timings are excluded.
  const std::vector<std::string> counts{
      "sim.events",          "sim.cancelled",         "sim.pending_peak",
      "traffic.pkts",        "net.lookups",           "voq.enqueued",
      "voq.dropped",         "voq.peak_bytes",        "voq.backlog_bytes_end",
      "estimator.arrivals",  "estimator.departures",  "estimator.snapshots",
      "matcher.calls",       "circuit.calls",         "circuit.plan_slots_mean",
      "sched.decisions",     "ocs.reconfigurations",  "ocs.pkts",
      "eps.pkts",            "eps.drops",             "core.delivered_pkts",
      "core.completed_flows"};
  const auto opt = options(Workload::kHybridWebsearch, perfbench::kDefaultSeed);
  const perfbench::Outcome a = perfbench::measure_traced(opt);
  const perfbench::Outcome b = perfbench::measure_traced(opt);
  EXPECT_EQ(a.tally.failed(), 0u);
  EXPECT_EQ(a.tally.digests(), b.tally.digests());
  const std::map<std::string, double> ma(a.metrics.begin(), a.metrics.end());
  const std::map<std::string, double> mb(b.metrics.begin(), b.metrics.end());
  for (const auto& name : counts) {
    ASSERT_TRUE(ma.contains(name)) << name;
    EXPECT_EQ(ma.at(name), mb.at(name)) << name;
  }
  EXPECT_GT(ma.at("sim.events"), 0.0);
  EXPECT_GT(ma.at("circuit.calls"), 0.0);
}

TEST(Workloads, DefaultSeedMatchesCommittedDigests) {
  for (const Workload w : perfbench::all_workloads()) {
    auto opt = options(w, perfbench::kDefaultSeed);
    opt.expected = perfbench::load_expected_digests(expected_path(w));
    const perfbench::Outcome out = perfbench::measure_untraced(opt);
    EXPECT_GT(out.tally.attempted(), 0u) << perfbench::to_string(w);
    EXPECT_EQ(out.tally.failed(), 0u)
        << perfbench::to_string(w) << ": "
        << (out.tally.errors().empty() ? "" : out.tally.errors().front());
  }
}

TEST(Workloads, HeldOutSeedPassesInvariants) {
  for (const Workload w : perfbench::all_workloads()) {
    const perfbench::Outcome out = perfbench::measure_untraced(options(w, kHeldOutSeed));
    EXPECT_GT(out.tally.attempted(), 0u) << perfbench::to_string(w);
    EXPECT_EQ(out.tally.failed(), 0u)
        << perfbench::to_string(w) << ": "
        << (out.tally.errors().empty() ? "" : out.tally.errors().front());
  }
}

}  // namespace
