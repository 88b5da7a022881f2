// Tests for the observability layer: metric registry, scoped spans,
// timeline sampler, Chrome trace export (golden file) and the hard
// telemetry invariant — enabling it never changes results, on one switch
// or on a multi-rack fat-tree.
#include <gtest/gtest.h>

#include <string>

#include "exp/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "sim/trace.hpp"
#include "stats/json.hpp"

namespace xdrs {
namespace {

using namespace xdrs::sim::literals;
using sim::TraceCategory;

// ----------------------------------------------------------------- registry

TEST(ObsRegistry, FindOrCreateReturnsStableReferences) {
  obs::Registry reg;
  obs::Timer& t1 = reg.timer("matcher_compute");
  obs::Timer& t2 = reg.timer("circuit_plan");
  EXPECT_NE(&t1, &t2);
  EXPECT_EQ(&reg.timer("matcher_compute"), &t1);
  EXPECT_EQ(reg.timers().size(), 2u);
  EXPECT_EQ(t1.id(), 0u);
  EXPECT_EQ(t2.id(), 1u);
  EXPECT_EQ(reg.timer_by_id(1), &t2);
  EXPECT_EQ(reg.timer_by_id(7), nullptr);
}

TEST(ObsRegistry, TimerAggregatesExactTotalAndWelford) {
  obs::Registry reg;
  obs::Timer& t = reg.timer("stage");
  t.record_ns(100);
  t.record_ns(300);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_EQ(t.total_ns(), 400);
  EXPECT_DOUBLE_EQ(t.summary().mean(), 200.0);
  EXPECT_DOUBLE_EQ(t.summary().min(), 100.0);
  EXPECT_DOUBLE_EQ(t.summary().max(), 300.0);
  EXPECT_EQ(t.histogram().count(), 2u);
}

TEST(ObsRegistry, ScopedSpanIsInertWhenDisabledOrDetached) {
  obs::Registry reg;  // disabled by default
  obs::Timer& t = reg.timer("stage");
  { obs::ScopedSpan span{&reg, &t}; }
  EXPECT_EQ(t.count(), 0u);
  { obs::ScopedSpan span{nullptr, nullptr}; }  // the detached hot path
  EXPECT_EQ(t.count(), 0u);

  reg.enable();
  { obs::ScopedSpan span{&reg, &t}; }
  EXPECT_EQ(t.count(), 1u);
}

TEST(ObsRegistry, SpanLogDropsNewestPastCapacity) {
  obs::Registry reg;
  reg.enable();
  reg.reserve_span_log(2);
  obs::Timer& t = reg.timer("stage");
  reg.record_span(t, 10, 1);
  reg.record_span(t, 20, 2);
  reg.record_span(t, 30, 3);  // over capacity: aggregated but not retained
  ASSERT_EQ(reg.spans().size(), 2u);
  EXPECT_EQ(reg.spans()[1].start_ns, 20);
  EXPECT_EQ(reg.spans_dropped(), 1u);
  EXPECT_EQ(t.count(), 3u);  // aggregation never drops
}

// ------------------------------------------------------------------ sampler

TEST(TimelineSampler, FoldsSnapshotsIntoAllSeries) {
  obs::TimelineSampler s{16};
  obs::TimelineSnapshot snap;
  snap.voq_total_bytes = 100;
  snap.voq_max_bytes = 60;
  snap.demand_nonzeros = 3;
  snap.ocs_delivered_bytes = 500;
  snap.eps_delivered_bytes = 200;
  snap.urgent_flows = 2;
  snap.urgent_bytes = 77;
  s.record(1_us, snap);
  snap.voq_total_bytes = 40;
  s.record(2_us, snap);

  EXPECT_EQ(s.samples_offered(), 2u);
  ASSERT_EQ(s.voq_total_bytes().size(), 2u);
  EXPECT_DOUBLE_EQ(s.voq_total_bytes().samples()[1].value, 40.0);
  EXPECT_DOUBLE_EQ(s.voq_total_bytes().peak(), 100.0);
  EXPECT_DOUBLE_EQ(s.urgent_bytes().samples()[0].value, 77.0);
}

TEST(TimelineSampler, TimelineJsonIsSelfDescribingAndParses) {
  obs::TimelineSampler s{16};
  obs::TimelineSnapshot snap;
  snap.voq_total_bytes = 10;
  s.record(5_us, snap);

  const std::string doc = obs::timeline_json(s, 5_us);
  const stats::JsonValue v = stats::parse_json(doc);
  EXPECT_EQ(v.at("timeline_schema").as_u64(), 1u);
  EXPECT_DOUBLE_EQ(v.at("sample_period_us").as_f64(), 5.0);
  EXPECT_EQ(v.at("samples_offered").as_u64(), 1u);
  const auto& series = v.at("series").items();
  ASSERT_EQ(series.size(), 7u);
  EXPECT_EQ(series[0].at("name").as_str(), "voq_total_bytes");
  EXPECT_EQ(series[6].at("name").as_str(), "deadline_urgent_bytes");
  // [t_us, value] pairs.
  const auto& samples = series[0].at("samples").items();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].items()[0].as_f64(), 5.0);
  EXPECT_DOUBLE_EQ(samples[0].items()[1].as_f64(), 10.0);
}

// ------------------------------------------------------------- trace export

/// Golden-file test: fixed recorder events and injected host spans must
/// render to exactly this document, byte for byte, every run — trace
/// exports are diffable artefacts.
TEST(ChromeTrace, GoldenExport) {
  sim::TraceRecorder tr;
  tr.enable();
  tr.record(1_us, TraceCategory::kDemandUpdate);
  tr.record(1_us, TraceCategory::kScheduleStart);
  tr.record(3_us, TraceCategory::kScheduleDone, 4);
  tr.record(5_us, TraceCategory::kReconfigStart);
  tr.record(7_us, TraceCategory::kReconfigDone, 1);
  tr.record(8_us, TraceCategory::kDeliver, 2, 3);

  obs::Registry reg;
  reg.enable();
  reg.reserve_span_log(8);
  obs::Timer& t = reg.timer("matcher_compute");
  reg.record_span(t, 1000, 250);
  reg.record_span(t, 2000, 750);

  const std::string expected =
      "{\n"
      "\"displayTimeUnit\": \"ns\",\n"
      "\"traceEvents\": [\n"
      "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"virtual time "
      "(simulation)\"}},\n"
      "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"host time "
      "(compute spans)\"}},\n"
      "  {\"name\":\"demand_update\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1,"
      "\"pid\":1,\"tid\":1,\"args\":{\"a\":0,\"b\":0}},\n"
      "  {\"name\":\"schedule\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":1,\"dur\":2,\"pid\":1,"
      "\"tid\":1,\"args\":{\"result\":4}},\n"
      "  {\"name\":\"reconfig\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":5,\"dur\":2,\"pid\":1,"
      "\"tid\":1,\"args\":{\"result\":1}},\n"
      "  {\"name\":\"deliver\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\"ts\":8,\"pid\":1,"
      "\"tid\":1,\"args\":{\"a\":2,\"b\":3}},\n"
      "  {\"name\":\"matcher_compute\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":0,\"dur\":0.25,"
      "\"pid\":2,\"tid\":1},\n"
      "  {\"name\":\"matcher_compute\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":1,\"dur\":0.75,"
      "\"pid\":2,\"tid\":1}\n"
      "]\n"
      "}\n";

  const std::string got = obs::chrome_trace_json(tr, reg);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(obs::chrome_trace_json(tr, reg), got);  // deterministic
  EXPECT_NO_THROW((void)stats::parse_json(got));    // well-formed JSON
}

TEST(ChromeTrace, UnclosedPairsSurfaceAsInstants) {
  sim::TraceRecorder tr;
  tr.enable();
  tr.record(1_us, TraceCategory::kScheduleStart);  // never closed
  obs::Registry reg;
  const std::string doc = obs::chrome_trace_json(tr, reg);
  EXPECT_NE(doc.find("\"schedule_start\""), std::string::npos);
  EXPECT_NO_THROW((void)stats::parse_json(doc));
}

// ------------------------------------------------- fat-tree end-to-end

TEST(Telemetry, NeverPerturbsResults) {
  exp::ScenarioSpec spec = exp::make_scenario("uniform", 4, 0.6, 11);
  spec.with_window(sim::Time::milliseconds(2), sim::Time::microseconds(500));

  // A bare framework, built without the topology: the comparison also pins
  // down that materialize() and materialize_fat_tree() build the same run.
  const core::RunReport plain = exp::materialize(spec)->run(spec.duration, spec.warmup);

  std::unique_ptr<topo::FatTree> ft = exp::materialize_fat_tree(spec);
  ft->enable_telemetry();
  const core::RunReport instrumented = ft->run(spec.duration, spec.warmup);

  // The invariant the whole layer hangs on: byte-identical artefacts.
  EXPECT_EQ(plain.to_json(), instrumented.to_json());

  // And the instrumented run actually observed things.
  const obs::RunTelemetry* t = ft->telemetry();
  ASSERT_NE(t, nullptr);
  EXPECT_GT(t->timeline().samples_offered(), 0u);
  EXPECT_GT(t->sample_period(), sim::Time::zero());
  bool matcher_profiled = false;
  for (const auto& timer : t->registry().timers()) {
    if (timer->name() == "matcher_compute" && timer->count() > 0) matcher_profiled = true;
  }
  EXPECT_TRUE(matcher_profiled);
}

TEST(Telemetry, MultiRackNeverPerturbsResultsAndOnlyMultiRackHasTiers) {
  exp::ScenarioSpec spec = exp::make_scenario("uniform", 8, 0.7, 7);
  spec.with_window(sim::Time::milliseconds(1), sim::Time::microseconds(200))
      .with_racks(2)
      .with_oversubscription(2.0)
      .with_locality(0.5);

  const core::RunReport plain = exp::run_scenario(spec);
  std::unique_ptr<topo::FatTree> ft = exp::materialize_fat_tree(spec);
  ft->enable_telemetry();
  const core::RunReport instrumented = ft->run(spec.duration, spec.warmup);
  EXPECT_EQ(plain.to_json(), instrumented.to_json());

  // One track per ToR plus the core, each sampled across the window.
  const auto tiers = ft->tier_series();
  ASSERT_EQ(tiers.size(), 3u);
  EXPECT_EQ(tiers[0].first, "tor0.voq_bytes");
  EXPECT_EQ(tiers[1].first, "tor1.voq_bytes");
  EXPECT_EQ(tiers[2].first, "core.queue_bytes");
  for (const auto& [name, series] : tiers) {
    EXPECT_EQ(series->offered(), ft->telemetry()->timeline().samples_offered()) << name;
  }

  // A single switch has no tiers: its timeline already is the ToR's track.
  spec.with_racks(1);
  std::unique_ptr<topo::FatTree> one = exp::materialize_fat_tree(spec);
  one->enable_telemetry();
  (void)one->run(spec.duration, spec.warmup);
  EXPECT_TRUE(one->tier_series().empty());
  EXPECT_GT(one->telemetry()->timeline().samples_offered(), 0u);
}

TEST(Telemetry, SidecarJsonParsesAndCarriesIdentity) {
  exp::ScenarioSpec spec = exp::make_scenario("uniform", 4, 0.5, 7);
  spec.with_window(sim::Time::milliseconds(1), sim::Time::zero());

  std::unique_ptr<topo::FatTree> ft = exp::materialize_fat_tree(spec);
  ft->enable_telemetry();
  (void)ft->run(spec.duration, spec.warmup);

  const std::string doc =
      obs::telemetry_sidecar_json(*ft->telemetry(), spec.key(), "deadbeef", spec.scenario);
  const stats::JsonValue v = stats::parse_json(doc);
  EXPECT_EQ(v.at("telemetry_schema").as_u64(), 2u);
  EXPECT_EQ(v.at("key").as_str(), spec.key());
  EXPECT_EQ(v.at("spec_hash").as_str(), "deadbeef");
  EXPECT_EQ(v.at("scenario").as_str(), "uniform");
  EXPECT_EQ(v.find("counters"), nullptr);
  EXPECT_EQ(v.find("gauges"), nullptr);
  // The period is derived: the 1 ms measured window over 256 samples.
  EXPECT_DOUBLE_EQ(v.at("timeline").at("sample_period_us").as_f64(), 1000.0 / 256);
  // Stage entries carry the full summary.
  bool saw_stage = false;
  for (const stats::JsonValue& stage : v.at("stages").items()) {
    if (stage.at("name").as_str() == "estimator_snapshot" && stage.at("count").as_u64() > 0) {
      EXPECT_GE(stage.at("total_ns").as_i64(), 0);
      EXPECT_GE(stage.at("p99_ns").as_i64(), stage.at("p50_ns").as_i64());
      saw_stage = true;
    }
  }
  EXPECT_TRUE(saw_stage);
}

TEST(Telemetry, EnableAfterRunThrows) {
  exp::ScenarioSpec spec = exp::make_scenario("uniform", 4, 0.3, 7);
  spec.with_window(sim::Time::microseconds(200), sim::Time::zero());
  std::unique_ptr<topo::FatTree> ft = exp::materialize_fat_tree(spec);
  (void)ft->run(spec.duration, spec.warmup);
  EXPECT_THROW(ft->enable_telemetry(), std::logic_error);
}

}  // namespace
}  // namespace xdrs
