// Tests for the trace-replay workload: strict CSV parsing, content
// digests, deterministic resampling across seeds/ports/loads, and the
// cache contract — a warm rerun hits, an edited trace file misses.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "exp/cache.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "traffic/trace_replay.hpp"

namespace xdrs::traffic {
namespace {

using namespace xdrs::sim::literals;

// ---- parsing ---------------------------------------------------------------

TEST(FlowTraceParse, AcceptsHeaderCommentsCrlfAndOptionalPriority) {
  const FlowTrace t = FlowTrace::parse(
      "# synthetic example\n"
      "start_us,src,dst,bytes,priority\n"
      "0.5,0,1,1000,2\r\n"
      "\n"
      "2,3,0,64\n"
      "7.25,1,4,50000,1\n");
  ASSERT_EQ(t.records.size(), 3u);
  EXPECT_EQ(t.records[0].start, sim::Time::picoseconds(500'000));
  EXPECT_EQ(t.records[0].src, 0u);
  EXPECT_EQ(t.records[0].dst, 1u);
  EXPECT_EQ(t.records[0].bytes, 1000);
  EXPECT_EQ(t.records[0].priority, 2);
  EXPECT_EQ(t.records[1].priority, 0);  // omitted -> best effort
  EXPECT_EQ(t.max_port, 4u);
  EXPECT_EQ(t.total_bytes, 51'064);
  EXPECT_EQ(t.span, sim::Time::picoseconds(7'250'000));
}

TEST(FlowTraceParse, RejectsEveryMalformedShape) {
  const auto reject = [](const char* csv, const char* why) {
    EXPECT_THROW((void)FlowTrace::parse(csv), std::invalid_argument) << why;
  };
  reject("", "empty trace");
  reject("# only comments\n", "no records");
  reject("1,0,1\n", "too few fields");
  reject("1,0,1,100,2,9,0\n", "too many fields");
  reject("1x,0,1,100\n", "trailing garbage on start_us");
  reject("-1,0,1,100\n", "negative start");
  reject("1e13,0,1,100\n", "start_us past the ps-conversion range");
  reject("inf,0,1,100\n", "non-finite start_us");
  reject("1,0x,1,100\n", "trailing garbage on src");
  reject("1,0,1,100x\n", "trailing garbage on bytes");
  reject("1,0,1,0\n", "zero bytes");
  reject("1,0,1,-5\n", "negative bytes");
  reject("1,2,2,100\n", "src == dst");
  reject("1,0,1,100,3\n", "priority out of range");
  reject("1,0,1,100,2,-1\n", "negative deadline_us");
  reject("1,0,1,100,2,inf\n", "non-finite deadline_us");
  reject("1,0,1,100,2,9x\n", "trailing garbage on deadline_us");
  reject("1,0,1,100,2,1e13\n", "deadline_us past the ps-conversion range");
  reject("5,0,1,100\n2,1,0,100\n", "out-of-order start times");
}

TEST(FlowTraceParse, ErrorsNameTheOffendingLine) {
  try {
    (void)FlowTrace::parse("# header\n1,0,1,100\n2,0,1,bad\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos) << e.what();
  }
}

TEST(FlowTraceLoad, MissingFileThrowsNamingThePath) {
  try {
    (void)FlowTrace::load("/no/such/trace.csv");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("/no/such/trace.csv"), std::string::npos);
  }
}

TEST(TraceDigest, TracksContentNotPath) {
  EXPECT_NE(trace_digest("a,b"), trace_digest("a,c"));
  EXPECT_EQ(trace_digest("same"), trace_digest("same"));
  EXPECT_EQ(trace_digest_hex("/no/such/trace.csv"), "unreadable");
}

// ---- replay ----------------------------------------------------------------

/// A smooth trace (equal flows, evenly spaced) so windowed loads are
/// nearly exact, written to a fresh temp file per test.
class TraceReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process, per-test name: concurrent ctest runs must not race.
    path_ = (std::filesystem::temp_directory_path() /
             ("xdrs_trace_" + std::to_string(::getpid()) + "_" +
              std::string{::testing::UnitTest::GetInstance()->current_test_info()->name()} +
              ".csv"))
                .string();
    std::ofstream out{path_, std::ios::trunc};
    out << "start_us,src,dst,bytes,priority\n";
    for (int i = 0; i < 100; ++i) {
      const int src = i % 16;
      out << i * 10.0 << ',' << src << ',' << (src + 1 + i % 5) % 16 << ",50000," << i % 3
          << '\n';
    }
  }
  void TearDown() override { std::filesystem::remove(path_); }

  [[nodiscard]] exp::ScenarioSpec spec(std::uint32_t ports, double load,
                                       std::uint64_t seed) const {
    exp::ScenarioSpec s = exp::make_scenario("trace", ports, load, seed).with_window(2_ms, 200_us);
    s.workloads.front().trace_path = path_;
    return s;
  }

  std::string path_;
};

TEST_F(TraceReplayTest, ScaledSpanMatchesTheTargetRate) {
  TraceReplayGenerator::Config gc;
  gc.trace = load_trace_cached(path_);
  gc.ports = 4;
  gc.line_rate = sim::DataRate::gbps(10);
  gc.load = 0.5;
  gc.seed = 7;
  const TraceReplayGenerator gen{gc};
  // 5 MB at 4 x 10G x 0.5 = 2.5 GB/s -> 2 ms lap, scaled linearly within.
  EXPECT_NEAR(static_cast<double>(gen.scaled_span().ps()), 2e9, 1e6);
  EXPECT_EQ(gen.scaled_start(0).ps(), 0);
  EXPECT_NEAR(static_cast<double>(gen.scaled_start(99).ps()),
              static_cast<double>(gen.scaled_span().ps()), 1e6);
}

TEST_F(TraceReplayTest, ConfigValidationRejectsBadInputs) {
  TraceReplayGenerator::Config gc;
  gc.trace = load_trace_cached(path_);
  gc.ports = 4;
  gc.line_rate = sim::DataRate::gbps(10);
  gc.load = 0.5;

  TraceReplayGenerator::Config bad = gc;
  bad.trace = nullptr;
  EXPECT_THROW((void)TraceReplayGenerator{bad}, std::invalid_argument);
  bad = gc;
  bad.trace = std::make_shared<const FlowTrace>();  // no records
  EXPECT_THROW((void)TraceReplayGenerator{bad}, std::invalid_argument);
  bad = gc;
  bad.ports = 1;
  EXPECT_THROW((void)TraceReplayGenerator{bad}, std::invalid_argument);
  bad = gc;
  bad.load = 0.0;
  EXPECT_THROW((void)TraceReplayGenerator{bad}, std::invalid_argument);
  bad = gc;
  bad.load = 1.5;
  EXPECT_THROW((void)TraceReplayGenerator{bad}, std::invalid_argument);
  bad = gc;
  bad.line_rate = sim::DataRate{};
  EXPECT_THROW((void)TraceReplayGenerator{bad}, std::invalid_argument);
}

TEST_F(TraceReplayTest, ReplayIsDeterministicAndSeedSensitive) {
  const core::RunReport a = exp::run_scenario(spec(8, 0.5, 7));
  const core::RunReport b = exp::run_scenario(spec(8, 0.5, 7));
  EXPECT_EQ(a.to_json(), b.to_json());

  // A different seed remaps ports differently: same byte budget, different
  // simulation.
  const core::RunReport c = exp::run_scenario(spec(8, 0.5, 8));
  EXPECT_NE(a.to_json(), c.to_json());
}

TEST_F(TraceReplayTest, OneTraceDrivesAnyPortCountAndLoad) {
  // The same file runs on 4 and 16 ports (remapping), and offered bytes
  // scale with the requested load (time scaling): the window sees ~2x the
  // bytes at 2x the load.
  for (const std::uint32_t ports : {4u, 16u}) {
    const core::RunReport lo = exp::run_scenario(spec(ports, 0.3, 7));
    const core::RunReport hi = exp::run_scenario(spec(ports, 0.6, 7));
    EXPECT_GT(lo.offered_bytes, 0) << ports;
    const double ratio =
        static_cast<double>(hi.offered_bytes) / static_cast<double>(lo.offered_bytes);
    EXPECT_NEAR(ratio, 2.0, 0.3) << ports;
  }
}

TEST_F(TraceReplayTest, CachedLoadServesOneParseAndTracksFileEdits) {
  const std::shared_ptr<const FlowTrace> first = load_trace_cached(path_);
  const std::shared_ptr<const FlowTrace> again = load_trace_cached(path_);
  EXPECT_EQ(first.get(), again.get());  // one parse, shared by every probe
  const std::string digest_before = trace_digest_hex(path_);
  EXPECT_EQ(trace_digest_hex(path_), digest_before);

  {
    std::ofstream out{path_, std::ios::app};
    out << "1500,0,1,64,0\n";
  }
  const std::shared_ptr<const FlowTrace> edited = load_trace_cached(path_);
  EXPECT_NE(first.get(), edited.get());
  EXPECT_EQ(edited->records.size(), first->records.size() + 1);
  EXPECT_NE(trace_digest_hex(path_), digest_before);
}

TEST_F(TraceReplayTest, WarmRerunHitsTheCacheEditedTraceMisses) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("xdrs_trace_cache_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  std::vector<exp::ScenarioSpec> grid{spec(4, 0.3, 7), spec(4, 0.6, 7)};
  const std::uint64_t hash_before = exp::spec_hash(grid[0]);
  {
    exp::ResultCache cold{dir};
    exp::ExecutionPlan opts;
    opts.cache = &cold;
    const exp::SweepResult first = exp::ExperimentRunner{opts}.run(grid);
    EXPECT_EQ(cold.stats().misses, grid.size());
    EXPECT_EQ(cold.stats().stores, grid.size());

    // Warm rerun: every point comes from disk, zero simulations.
    exp::ResultCache warm{dir};
    opts.cache = &warm;
    const exp::SweepResult second = exp::ExperimentRunner{opts}.run(grid);
    EXPECT_EQ(warm.stats().hits, grid.size());
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(warm.stats().stores, 0u);
    EXPECT_EQ(second.to_json(), first.to_json());
  }

  // Change the trace file's bytes (even just a comment): the content
  // digest, hence the spec hash, hence the cache key all change — the old
  // entries are never served for the new trace.
  {
    std::ofstream out{path_, std::ios::app};
    out << "# retraced\n";
  }
  EXPECT_NE(exp::spec_hash(grid[0]), hash_before);
  EXPECT_NE(grid[0].identity_json().find("\"trace_digest\""), std::string::npos);

  exp::ResultCache after{dir};
  exp::ExecutionPlan opts;
  opts.cache = &after;
  (void)exp::ExperimentRunner{opts}.run(grid);
  EXPECT_EQ(after.stats().hits, 0u);
  EXPECT_EQ(after.stats().misses, grid.size());

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xdrs::traffic
