// Tests for the content-addressed result cache: spec-hash stability goldens,
// hit/miss/stale accounting, invalidation on schema or policy-stack change,
// and the headline guarantee — a warm-cache sweep executes zero simulations
// and still emits byte-identical artefacts.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "exp/cache.hpp"
#include "exp/runner.hpp"

namespace xdrs::exp {
namespace {

using namespace xdrs::sim::literals;

/// Fresh cache directory per test, removed on teardown.
class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("xdrs_cache_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

ScenarioSpec fixed_spec() {
  return make_scenario("uniform", 4, 0.5, 7).with_window(500_us, 100_us);
}

// ---- spec hashing ----------------------------------------------------------

// Golden: the cache key of a fixed spec.  This value is the on-disk contract
// for shared cache directories — if it changes, every cached point is
// (correctly) invalidated, but an *unintentional* change means the spec
// serialization or the FNV constants drifted.  Update it only alongside a
// deliberate ScenarioSpec::identity_json() / RunReport::kSchemaVersion
// change.  (Last changed when the identity began to render the policy
// kinds a discipline does not consume as '-': this slotted spec's circuit.)
TEST_F(ResultCacheTest, SpecHashGoldenIsStable) {
  EXPECT_EQ(ResultCache::entry_name(fixed_spec()), "457ce605e50d23d1.json");
  EXPECT_EQ(ResultCache::entry_name(fixed_spec()), "457ce605e50d23d1.json");  // deterministic
}

TEST_F(ResultCacheTest, SpecHashSeesEveryAxisAndTheWholePolicyStack) {
  const std::uint64_t base = spec_hash(fixed_spec());
  EXPECT_NE(spec_hash(ScenarioSpec{fixed_spec()}.with_ports(8)), base);
  EXPECT_NE(spec_hash(ScenarioSpec{fixed_spec()}.with_load(0.6)), base);
  EXPECT_NE(spec_hash(ScenarioSpec{fixed_spec()}.with_seed(8)), base);
  EXPECT_NE(spec_hash(ScenarioSpec{fixed_spec()}.with_matcher("maxweight")), base);
  // fixed_spec() is slotted, which never builds a circuit scheduler: its
  // circuit spec cannot change the result, so it does not change the hash.
  EXPECT_EQ(spec_hash(ScenarioSpec{fixed_spec()}.with_circuit("cthrough")), base);
  EXPECT_NE(spec_hash(ScenarioSpec{fixed_spec()}.with_estimator("ewma:0.25")), base);
  EXPECT_NE(spec_hash(ScenarioSpec{fixed_spec()}.with_timing("ideal")), base);
  EXPECT_NE(spec_hash(ScenarioSpec{fixed_spec()}.with_window(600_us, 100_us)), base);
  EXPECT_NE(spec_hash(ScenarioSpec{fixed_spec()}.with_label("renamed")), base);
  EXPECT_EQ(spec_hash(fixed_spec()), base);

  // The key covers the exhaustive identity, not just the artefact fields:
  // FrameworkConfig knobs, workload parameters and the VOIP overlay all
  // participate, so behaviourally different specs never share an entry.
  ScenarioSpec tweaked = fixed_spec();
  tweaked.config.eps_buffer_bytes *= 2;
  EXPECT_NE(spec_hash(tweaked), base);
  tweaked = fixed_spec();
  tweaked.config.ocs_reconfig = sim::Time::microseconds(99);
  EXPECT_NE(spec_hash(tweaked), base);
  tweaked = fixed_spec();
  tweaked.config.link_rate = sim::DataRate::gbps(40);
  EXPECT_NE(spec_hash(tweaked), base);
  tweaked = fixed_spec();
  tweaked.config.eps_strict_priority = true;
  EXPECT_NE(spec_hash(tweaked), base);
  tweaked = fixed_spec();
  tweaked.config.sync.max_skew = sim::Time::nanoseconds(500);
  EXPECT_NE(spec_hash(tweaked), base);
  tweaked = fixed_spec();
  tweaked.voip_pairs = 2;
  EXPECT_NE(spec_hash(tweaked), base);
  tweaked = fixed_spec();
  ASSERT_FALSE(tweaked.workloads.empty());
  tweaked.workloads[0].skew = 0.9;
  EXPECT_NE(spec_hash(tweaked), base);
  tweaked = fixed_spec();
  tweaked.workloads[0].seed += 1;
  EXPECT_NE(spec_hash(tweaked), base);
}

// Each discipline's consumed kinds, written out rather than read from
// core::consumes, so a rule that drops a consumed kind from the identity
// fails here.
TEST_F(ResultCacheTest, SpecHashSeesExactlyTheKindsTheDisciplineConsumes) {
  const ScenarioSpec slotted = fixed_spec();
  const ScenarioSpec hybrid = make_scenario("flows", 4, 0.5, 7).with_window(500_us, 100_us);
  ASSERT_EQ(slotted.config.discipline, core::SchedulingDiscipline::kSlotted);
  ASSERT_EQ(hybrid.config.discipline, core::SchedulingDiscipline::kHybridEpoch);

  struct Case {
    const ScenarioSpec& base;
    bool matcher, circuit;  // estimator and timing are consumed by both
  };
  for (const Case& c : {Case{slotted, true, false}, Case{hybrid, false, true}}) {
    const std::uint64_t base = spec_hash(c.base);
    const std::string name = to_string(c.base.config.discipline);
    EXPECT_EQ(spec_hash(ScenarioSpec{c.base}.with_matcher("maxweight")) != base, c.matcher)
        << name;
    EXPECT_EQ(spec_hash(ScenarioSpec{c.base}.with_circuit("cthrough")) != base, c.circuit)
        << name;
    EXPECT_NE(spec_hash(ScenarioSpec{c.base}.with_estimator("ewma:0.25")), base) << name;
    EXPECT_NE(spec_hash(ScenarioSpec{c.base}.with_timing("ideal")), base) << name;
    EXPECT_NE(spec_hash(ScenarioSpec{c.base}.with_timing("software")), base) << name;

    // The unconsumed kind renders as '-', in its field and in the label.
    const std::string identity = c.base.identity_json();
    EXPECT_NE(identity.find(c.matcher ? "\"circuit\":\"-\"" : "\"matcher\":\"-\""),
              std::string::npos)
        << identity;
    EXPECT_NE(identity.find(c.matcher ? "/islip:2/-/instantaneous/hardware/"
                                      : "/-/solstice/instantaneous/hardware/"),
              std::string::npos)
        << identity;
    // The artefact columns keep the requested stack.
    EXPECT_EQ(c.base.key().find("/-/"), std::string::npos) << c.base.key();
  }
}

// hw:500MHz is not an alias of hardware: it runs a 2-ns pipeline clock
// against the default 6.4 ns, so the two stay distinct identities with
// distinct modelled decision latencies.
TEST_F(ResultCacheTest, HwClockSpecIsNotAnAliasOfHardware) {
  const ScenarioSpec hardware = ScenarioSpec{fixed_spec()}.with_timing("hardware");
  const ScenarioSpec clocked = ScenarioSpec{fixed_spec()}.with_timing("hw:500MHz");
  EXPECT_NE(hardware.identity_json(), clocked.identity_json());
  EXPECT_NE(spec_hash(hardware), spec_hash(clocked));
  const core::RunReport a = run_scenario(hardware);
  const core::RunReport b = run_scenario(clocked);
  ASSERT_GT(a.scheduler_decisions, 0u);
  EXPECT_NE(a.mean_decision_latency, b.mean_decision_latency);
}

// ---- hit / miss / stale paths ----------------------------------------------

TEST_F(ResultCacheTest, MissThenStoreThenHit) {
  ResultCache cache{dir_};
  const ScenarioSpec spec = fixed_spec();

  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  const core::RunReport report = run_scenario(spec);
  cache.store(spec, report);
  EXPECT_EQ(cache.stats().stores, 1u);

  const auto cached = cache.lookup(spec);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->to_json(), report.to_json());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().stale, 0u);

  // A different spec hashes elsewhere: miss, not a collision.
  EXPECT_FALSE(cache.lookup(ScenarioSpec{spec}.with_seed(8)).has_value());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(ResultCacheTest, CorruptAndMismatchedEntriesAreStaleNotFatal) {
  ResultCache cache{dir_};
  const ScenarioSpec spec = fixed_spec();
  cache.store(spec, run_scenario(spec));

  // Corrupt JSON -> stale.
  {
    std::ofstream out{cache.entry_path(spec), std::ios::binary | std::ios::trunc};
    out << "{ not json";
  }
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.stats().stale, 1u);

  // An entry stored under this hash for a *different* spec (simulated
  // collision / spec-encoding drift) -> stale, never served.
  const ScenarioSpec other = ScenarioSpec{spec}.with_label("imposter");
  const std::string imposter_entry = [&] {
    ResultCache side{dir_ + "_side"};
    side.store(other, run_scenario(other));
    std::ifstream in{side.entry_path(other), std::ios::binary};
    std::string data{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    std::filesystem::remove_all(dir_ + "_side");
    return data;
  }();
  {
    std::ofstream out{cache.entry_path(spec), std::ios::binary | std::ios::trunc};
    out << imposter_entry;
  }
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.stats().stale, 2u);

  // store() repairs the entry in place.
  cache.store(spec, run_scenario(spec));
  EXPECT_TRUE(cache.lookup(spec).has_value());
}

TEST_F(ResultCacheTest, SchemaVersionMismatchIsStale) {
  ResultCache cache{dir_};
  const ScenarioSpec spec = fixed_spec();
  cache.store(spec, run_scenario(spec));

  // Rewrite the entry as if an older library (report schema 1) had written
  // it; the envelope parses but report_from_state must reject it.
  std::ifstream in{cache.entry_path(spec), std::ios::binary};
  std::string entry{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  in.close();
  const std::string needle = "\"report\":{\"schema_version\":4";
  const auto pos = entry.find(needle);
  ASSERT_NE(pos, std::string::npos);
  entry.replace(pos, needle.size(), "\"report\":{\"schema_version\":1");
  {
    std::ofstream out{cache.entry_path(spec), std::ios::binary | std::ios::trunc};
    out << entry;
  }
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.stats().stale, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// ---- the warm-rerun guarantee ----------------------------------------------

TEST_F(ResultCacheTest, WarmSweepExecutesZeroSimulationsAndEmitsIdenticalBytes) {
  std::vector<ScenarioSpec> grid{fixed_spec(), fixed_spec().with_seed(8)};
  grid = expand(grid, axis_load({0.3, 0.6}));
  grid = expand(grid, axis_matcher({"islip:1", "maxweight"}));  // 8 points

  ResultCache cold{dir_};
  ExecutionPlan cold_opts;
  cold_opts.cache = &cold;
  const SweepResult first = ExperimentRunner{cold_opts}.run(grid);
  EXPECT_EQ(cold.stats().misses, grid.size());
  EXPECT_EQ(cold.stats().stores, grid.size());
  EXPECT_EQ(cold.stats().hits, 0u);

  // Fresh cache object, same directory: every point must come from disk.
  ResultCache warm{dir_};
  ExecutionPlan warm_opts;
  warm_opts.cache = &warm;
  const SweepResult second = ExperimentRunner{warm_opts}.run(grid);

  const CacheStats ws = warm.stats();
  EXPECT_EQ(ws.hits, grid.size());
  EXPECT_EQ(ws.misses, 0u);   // zero simulations executed:
  EXPECT_EQ(ws.stale, 0u);    //   every lookup hit,
  EXPECT_EQ(ws.stores, 0u);   //   nothing was run-and-stored

  EXPECT_EQ(second.to_json(), first.to_json());
  EXPECT_EQ(second.to_csv(), first.to_csv());
}

TEST_F(ResultCacheTest, OnlyTheFirstPointOfEachIdentityTouchesTheCache) {
  // A hybrid grid crossing 3 matchers with 2 circuits is 2 identities.
  std::vector<ScenarioSpec> grid{make_scenario("flows", 4, 0.5, 7).with_window(500_us, 100_us)};
  grid = expand(grid, axis_matcher({"islip:1", "maxweight", "pim:1"}));
  grid = expand(grid, axis_circuit({"solstice", "cthrough"}));  // 6 points

  ResultCache cold{dir_};
  ExecutionPlan cold_opts;
  cold_opts.cache = &cold;
  const SweepResult first = ExperimentRunner{cold_opts}.run(grid);
  EXPECT_EQ(cold.stats().misses, 2u);
  EXPECT_EQ(cold.stats().stores, 2u);
  EXPECT_EQ(cold.stats().hits, 0u);

  ResultCache warm{dir_};
  ExecutionPlan warm_opts;
  warm_opts.cache = &warm;
  const SweepResult second = ExperimentRunner{warm_opts}.run(grid);
  EXPECT_EQ(warm.stats().hits, 2u);
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().stores, 0u);
  for (const PointResult& p : second.points) EXPECT_TRUE(p.cached) << p.index;
  EXPECT_EQ(second.to_json(), first.to_json());
}

TEST_F(ResultCacheTest, ShardsCanShareOneCacheDirectory) {
  std::vector<ScenarioSpec> grid{fixed_spec()};
  grid = expand(grid, axis_load({0.3, 0.6}));
  grid = expand(grid, axis_matcher({"islip:1", "maxweight"}));  // 4 points

  for (std::size_t shard = 0; shard < 2; ++shard) {
    ResultCache cache{dir_};
    ExecutionPlan opts;
    opts.shard = {shard, 2};
    opts.cache = &cache;
    (void)ExperimentRunner{opts}.run(grid);
    EXPECT_EQ(cache.stats().stores, 2u);
  }

  ResultCache warm{dir_};
  for (const ScenarioSpec& spec : grid) EXPECT_TRUE(warm.lookup(spec).has_value());
  EXPECT_EQ(warm.stats().hits, grid.size());
}

TEST_F(ResultCacheTest, UnwritableDirectoryThrows) {
  EXPECT_THROW(ResultCache{"/proc/definitely/not/writable"}, std::runtime_error);
}

// ---- eviction (sweepctl gc) ------------------------------------------------

TEST_F(ResultCacheTest, GcEvictsStaleEntriesAndKeepsFreshOnes) {
  ResultCache cache{dir_};
  const ScenarioSpec fresh = fixed_spec();
  const ScenarioSpec stale = ScenarioSpec{fixed_spec()}.with_seed(8);
  cache.store(fresh, run_scenario(fresh));
  cache.store(stale, run_scenario(stale));

  // Backdate one entry by 10 days; also plant an orphaned temp file (a
  // crashed writer) and an unrelated file gc must never touch.
  const auto ago =
      std::filesystem::file_time_type::clock::now() - std::chrono::hours{24 * 10};
  std::filesystem::last_write_time(cache.entry_path(stale), ago);
  const std::string orphan = cache.entry_path(stale) + ".tmp.0123456789abcdef";
  const std::string unrelated = (std::filesystem::path{dir_} / "notes.txt").string();
  {
    std::ofstream{orphan} << "{";
    std::ofstream{unrelated} << "keep me";
  }
  std::filesystem::last_write_time(orphan, ago);
  std::filesystem::last_write_time(unrelated, ago);

  const GcStats gcs = cache.gc(/*keep_days=*/7.0);
  EXPECT_EQ(gcs.removed, 2u);  // the stale entry and the orphaned temp file
  EXPECT_EQ(gcs.kept, 1u);
  EXPECT_FALSE(std::filesystem::exists(cache.entry_path(stale)));
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(unrelated));

  // The fresh entry still serves; the evicted one is a clean miss.
  EXPECT_TRUE(cache.lookup(fresh).has_value());
  EXPECT_FALSE(cache.lookup(stale).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  // An astronomical keep_days means "keep everything" — it must not
  // overflow the age computation into deleting the whole cache.
  EXPECT_EQ(cache.gc(1e9).removed, 0u);
  EXPECT_EQ(cache.gc(1e9).kept, 1u);

  // keep_days = 0 wipes every entry; negative values are an error.
  EXPECT_EQ(cache.gc(0.0).removed, 1u);
  EXPECT_THROW((void)cache.gc(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace xdrs::exp
