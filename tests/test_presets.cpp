// Tests for the named grid presets, centred on the key-uniqueness
// guarantee: ScenarioSpec::key() is documented as "the deterministic
// identity in serialized sweeps", so expanding ANY preset — including the
// 960-point policy cross-product, whose points differ only in estimator or
// timing, and the composite mixes — must yield pairwise-distinct keys.
// (The seed key() truncated load to two decimals and printed only one
// policy spec, which made policy-cross points collide.)
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "exp/presets.hpp"

namespace xdrs::exp {
namespace {

TEST(Presets, KnowsTheBuiltInGrids) {
  const auto names = known_presets();
  for (const char* expected : {"small", "full", "policy-cross", "composite", "deadline", "trace",
                               "empirical", "ft2", "p128"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing preset " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Presets, PolicyCrossWalksTheFullRegistryCrossProduct) {
  // 12 matchers x 4 circuits x 4 estimators x 5 timing models.
  EXPECT_EQ(make_preset("policy-cross").size(), 960u);
}

TEST(Presets, CompositeAndTraceGridsHaveTheDocumentedShape) {
  // 3 composite scenarios x 2 loads x 2 circuit schedulers.
  EXPECT_EQ(make_preset("composite").size(), 12u);
  // 1 trace scenario x 3 loads x 2 circuit schedulers.
  EXPECT_EQ(make_preset("trace").size(), 6u);
  // 3 empirical scenarios x 2 loads x 2 circuit schedulers.
  EXPECT_EQ(make_preset("empirical").size(), 12u);
  // 2 paper-scale scenarios x 2 loads x 3 matchers, all at 128 ports.
  const std::vector<ScenarioSpec> p128 = make_preset("p128");
  EXPECT_EQ(p128.size(), 12u);
  for (const ScenarioSpec& spec : p128) EXPECT_EQ(spec.config.ports, 128u);
  // websearch_dl 2 loads x 2 matchers x 2 estimators + rpc_slo 2 loads x
  // 2 estimators.
  EXPECT_EQ(make_preset("deadline").size(), 12u);
  // 2 fat-tree scenarios x 2 oversubscriptions x 2 localities, all 2-rack.
  const std::vector<ScenarioSpec> ft2 = make_preset("ft2");
  EXPECT_EQ(ft2.size(), 8u);
  for (const ScenarioSpec& spec : ft2) {
    EXPECT_EQ(spec.topology.racks, 2u);
    EXPECT_TRUE(spec.topology.multi_rack());
  }
}

TEST(Presets, DeadlineGridCrossesAwareAndBlindStacks) {
  // The grid exists to answer "does deadline-awareness help": every point
  // carries a deadline-bearing workload, and both the aware and the blind
  // variant of each axis must be present.
  std::set<std::string> scenarios;
  std::set<std::string> matchers;
  std::set<std::string> estimators;
  for (const ScenarioSpec& spec : make_preset("deadline")) {
    scenarios.insert(spec.scenario);
    matchers.insert(spec.policies.matcher);
    estimators.insert(spec.policies.estimator);
    bool any_deadline = false;
    for (const auto& w : spec.workloads) any_deadline |= w.deadline.enabled();
    EXPECT_TRUE(any_deadline) << spec.key();
  }
  EXPECT_EQ(scenarios, (std::set<std::string>{"websearch_dl", "rpc_slo"}));
  EXPECT_TRUE(matchers.count("srpt_w:2"));
  EXPECT_TRUE(estimators.count("edf"));
  EXPECT_TRUE(estimators.count("instantaneous"));
}

TEST(Presets, EmpiricalGridCoversBothBundledCdfs) {
  // The grid must exercise websearch, datamining and the websearch+incast
  // composite — the key-uniqueness sweep below keeps their keys distinct.
  std::set<std::string> scenarios;
  for (const ScenarioSpec& spec : make_preset("empirical")) scenarios.insert(spec.scenario);
  EXPECT_EQ(scenarios, (std::set<std::string>{"websearch", "datamining", "websearch+incast"}));
}

TEST(Presets, EveryPresetExpandsToPairwiseDistinctKeys) {
  for (const std::string& name : known_presets()) {
    const std::vector<ScenarioSpec> grid = make_preset(name);
    ASSERT_FALSE(grid.empty()) << name;
    std::map<std::string, std::size_t> seen;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto [it, inserted] = seen.emplace(grid[i].key(), i);
      EXPECT_TRUE(inserted) << "preset '" << name << "': points " << it->second << " and " << i
                            << " share key '" << grid[i].key() << "'";
    }
  }
}

TEST(Presets, OnlyPolicyCrossRepeatsAnIdentity) {
  // A sweep simulates each canonical identity once.  Every preset but the
  // policy cross runs one identity per point; the cross is a hybrid grid,
  // so its 12 matchers collapse onto 4 circuits x 4 estimators x 5 timing
  // models = 80 identities (hw:500MHz is its own clock, not "hardware").
  for (const std::string& name : known_presets()) {
    const std::vector<ScenarioSpec> grid = make_preset(name);
    std::set<std::string> identities;
    for (const ScenarioSpec& spec : grid) identities.insert(spec.identity_json());
    EXPECT_EQ(identities.size(), name == "policy-cross" ? 80u : grid.size()) << name;
  }
}

TEST(Presets, KeysAreStableAcrossExpansions) {
  // The key is an identity, not a transient label: rebuilding the grid
  // reproduces the same keys in the same order.
  for (const std::string& name : {std::string{"small"}, std::string{"composite"}}) {
    const std::vector<ScenarioSpec> a = make_preset(name);
    const std::vector<ScenarioSpec> b = make_preset(name);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].key(), b[i].key()) << name;
  }
}

TEST(Presets, UnknownNameThrowsWithKnownList) {
  try {
    (void)make_preset("no-such-preset");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("policy-cross"), std::string::npos);
  }
}

}  // namespace
}  // namespace xdrs::exp
