// Tests for the processing-logic classifier: wildcard rules, priorities,
// the exact-match flow cache, and fallback behaviour.
#include <gtest/gtest.h>

#include "net/classifier.hpp"

namespace xdrs::net {
namespace {

Packet make_packet(std::uint32_t src_addr, std::uint32_t dst_addr, std::uint16_t dport,
                   IpProto proto = IpProto::kUdp) {
  Packet p;
  p.tuple.src_addr = src_addr;
  p.tuple.dst_addr = dst_addr;
  p.tuple.dst_port = dport;
  p.tuple.proto = proto;
  return p;
}

TEST(Rule, ExactFieldMatch) {
  Rule r;
  r.dst_addr_value = 0x0a000001;
  r.dst_addr_mask = 0xffffffff;
  EXPECT_TRUE(r.matches(make_packet(1, 0x0a000001, 80).tuple));
  EXPECT_FALSE(r.matches(make_packet(1, 0x0a000002, 80).tuple));
}

TEST(Rule, MaskedPrefixMatch) {
  Rule r;
  r.dst_addr_value = 0x0a000000;
  r.dst_addr_mask = 0xff000000;  // 10.0.0.0/8
  EXPECT_TRUE(r.matches(make_packet(0, 0x0a123456, 0).tuple));
  EXPECT_FALSE(r.matches(make_packet(0, 0x0b000000, 0).tuple));
}

TEST(Rule, WildcardMatchesEverything) {
  const Rule r;  // all masks zero, no proto
  EXPECT_TRUE(r.matches(make_packet(1, 2, 3).tuple));
  EXPECT_TRUE(r.matches(make_packet(0xffffffff, 0, 65535, IpProto::kTcp).tuple));
}

TEST(Rule, ProtocolMatch) {
  Rule r;
  r.proto = IpProto::kTcp;
  EXPECT_TRUE(r.matches(make_packet(1, 2, 3, IpProto::kTcp).tuple));
  EXPECT_FALSE(r.matches(make_packet(1, 2, 3, IpProto::kUdp).tuple));
}

TEST(Rule, PortMatch) {
  Rule r;
  r.dst_port_value = 5004;
  r.dst_port_mask = 0xffff;
  EXPECT_TRUE(r.matches(make_packet(1, 2, 5004).tuple));
  EXPECT_FALSE(r.matches(make_packet(1, 2, 5005).tuple));
}

TEST(Classifier, FallbackWhenNoRules) {
  Classifier c;
  const Verdict fb{7, TrafficClass::kBestEffort};
  EXPECT_EQ(c.classify(make_packet(1, 2, 3), fb), fb);
  EXPECT_EQ(c.stats().default_hits, 1u);
}

TEST(Classifier, RuleOverridesFallback) {
  Classifier c;
  Rule r;
  r.dst_port_value = 5004;
  r.dst_port_mask = 0xffff;
  r.verdict = Verdict{3, TrafficClass::kLatencySensitive};
  c.add_rule(r);

  const Verdict fb{9, TrafficClass::kBestEffort};
  const Verdict v = c.classify(make_packet(1, 2, 5004), fb);
  EXPECT_EQ(v.out_port, 3u);
  EXPECT_EQ(v.tclass, TrafficClass::kLatencySensitive);
  EXPECT_EQ(c.stats().rule_hits, 1u);
}

TEST(Classifier, LowerPriorityValueWins) {
  Classifier c;
  Rule broad;  // matches everything
  broad.priority = 10;
  broad.verdict = Verdict{1, TrafficClass::kBestEffort};
  Rule narrow;
  narrow.dst_port_value = 80;
  narrow.dst_port_mask = 0xffff;
  narrow.priority = 1;
  narrow.verdict = Verdict{2, TrafficClass::kThroughput};
  c.add_rule(broad);
  c.add_rule(narrow);

  EXPECT_EQ(c.classify(make_packet(1, 2, 80), {}).out_port, 2u);
  EXPECT_EQ(c.classify(make_packet(1, 2, 81), {}).out_port, 1u);
}

TEST(Classifier, InsertionOrderBreaksPriorityTies) {
  Classifier c;
  Rule first, second;  // both match everything at equal priority
  first.verdict = Verdict{1, TrafficClass::kBestEffort};
  second.verdict = Verdict{2, TrafficClass::kBestEffort};
  c.add_rule(first);
  c.add_rule(second);
  EXPECT_EQ(c.classify(make_packet(1, 2, 3), {}).out_port, 1u);
}

TEST(Classifier, CacheHitsOnRepeatedFlow) {
  Classifier c;
  Rule r;
  r.verdict = Verdict{5, TrafficClass::kThroughput};
  c.add_rule(r);

  const Packet p = make_packet(1, 2, 3);
  (void)c.classify(p, {});
  (void)c.classify(p, {});
  (void)c.classify(p, {});
  EXPECT_EQ(c.stats().lookups, 3u);
  EXPECT_EQ(c.stats().cache_hits, 2u);
  EXPECT_EQ(c.stats().rule_hits, 1u);
}

TEST(Classifier, AddRuleInvalidatesCache) {
  Classifier c;
  const Packet p = make_packet(1, 2, 80);
  EXPECT_EQ(c.classify(p, Verdict{9, TrafficClass::kBestEffort}).out_port, 9u);

  Rule r;
  r.dst_port_value = 80;
  r.dst_port_mask = 0xffff;
  r.verdict = Verdict{4, TrafficClass::kThroughput};
  c.add_rule(r);
  EXPECT_EQ(c.classify(p, Verdict{9, TrafficClass::kBestEffort}).out_port, 4u);
}

TEST(Classifier, ClearRulesRestoresFallback) {
  Classifier c;
  Rule r;
  r.verdict = Verdict{4, TrafficClass::kThroughput};
  c.add_rule(r);
  EXPECT_EQ(c.rule_count(), 1u);
  c.clear_rules();
  EXPECT_EQ(c.rule_count(), 0u);
  EXPECT_EQ(c.classify(make_packet(1, 2, 3), Verdict{8, TrafficClass::kBestEffort}).out_port, 8u);
}

TEST(Classifier, CacheCapacityIsRespected) {
  Classifier c{4};
  for (std::uint32_t i = 0; i < 100; ++i) {
    (void)c.classify(make_packet(i, i + 1, static_cast<std::uint16_t>(i)), {});
  }
  // All distinct flows, tiny cache: no crashes, lookups all counted.
  EXPECT_EQ(c.stats().lookups, 100u);
}

// Packets of one 5-tuple may carry different fallbacks: fat-tree placement
// sends some of a host pair's packets to an uplink, and traffic classes
// differ per packet.  Each packet must get its own.
TEST(Classifier, NoRulesGivesEveryPacketItsOwnFallback) {
  Classifier c;
  const Packet p = make_packet(1, 2, 80);
  const Verdict local{3, TrafficClass::kBestEffort};
  const Verdict uplink{9, TrafficClass::kBestEffort};
  const Verdict latency{3, TrafficClass::kLatencySensitive};
  EXPECT_EQ(c.classify(p, local), local);
  EXPECT_EQ(c.classify(p, uplink), uplink);
  EXPECT_EQ(c.classify(p, latency), latency);
  EXPECT_EQ(c.classify(p, local), local);
  EXPECT_EQ(c.stats().lookups, 4u);
  EXPECT_EQ(c.stats().default_hits, 4u);
  EXPECT_EQ(c.stats().cache_hits, 0u);  // no rule: the cache is never consulted
}

TEST(Classifier, CachedNoMatchReturnsTheCurrentPacketsFallback) {
  Classifier c;
  Rule r;
  r.dst_port_value = 5004;
  r.dst_port_mask = 0xffff;
  r.verdict = Verdict{4, TrafficClass::kLatencySensitive};
  c.add_rule(r);

  const Packet p = make_packet(1, 2, 80);  // matches no rule
  const Verdict first{7, TrafficClass::kBestEffort};
  const Verdict second{9, TrafficClass::kThroughput};
  EXPECT_EQ(c.classify(p, first), first);
  EXPECT_EQ(c.classify(p, second), second);
  EXPECT_EQ(c.stats().cache_hits, 1u);
  EXPECT_EQ(c.stats().default_hits, 1u);
  // A cached rule match still answers with the rule's verdict.
  const Packet rtp = make_packet(1, 2, 5004);
  EXPECT_EQ(c.classify(rtp, first), r.verdict);
  EXPECT_EQ(c.classify(rtp, second), r.verdict);
  EXPECT_EQ(c.stats().rule_hits, 1u);
  EXPECT_EQ(c.stats().cache_hits, 2u);
}

TEST(FiveTuple, EqualityAndHash) {
  const FiveTuple a{1, 2, 3, 4, IpProto::kTcp};
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(FiveTupleHash{}(a), FiveTupleHash{}(b));
  b.dst_port = 5;
  EXPECT_NE(a, b);
}

TEST(FiveTuple, ToStringFormat) {
  const FiveTuple t{0x0a000001, 0x0a000002, 1234, 80, IpProto::kTcp};
  EXPECT_EQ(t.to_string(), "10.0.0.1:1234 > 10.0.0.2:80/6");
}

TEST(TrafficClassNames, Distinct) {
  EXPECT_STRNE(to_string(TrafficClass::kLatencySensitive), to_string(TrafficClass::kThroughput));
  EXPECT_STRNE(to_string(TrafficClass::kThroughput), to_string(TrafficClass::kBestEffort));
}

}  // namespace
}  // namespace xdrs::net
