#include "net/classifier.hpp"

#include <algorithm>

namespace xdrs::net {

bool Rule::matches(const FiveTuple& t) const noexcept {
  if ((t.src_addr & src_addr_mask) != (src_addr_value & src_addr_mask)) return false;
  if ((t.dst_addr & dst_addr_mask) != (dst_addr_value & dst_addr_mask)) return false;
  if ((t.src_port & src_port_mask) != (src_port_value & src_port_mask)) return false;
  if ((t.dst_port & dst_port_mask) != (dst_port_value & dst_port_mask)) return false;
  if (proto.has_value() && t.proto != *proto) return false;
  return true;
}

Classifier::Classifier(std::size_t cache_capacity) : cache_capacity_{cache_capacity} {}

void Classifier::add_rule(const Rule& rule) {
  const Indexed entry{rule, next_order_++};
  const auto pos = std::upper_bound(
      rules_.begin(), rules_.end(), entry, [](const Indexed& a, const Indexed& b) {
        if (a.rule.priority != b.rule.priority) return a.rule.priority < b.rule.priority;
        return a.order < b.order;
      });
  rules_.insert(pos, entry);
  cache_.clear();  // verdicts may have changed
}

std::size_t Classifier::remove_rule(std::uint64_t id) {
  const auto before = rules_.size();
  std::erase_if(rules_, [id](const Indexed& e) { return e.rule.id == id; });
  const std::size_t removed = before - rules_.size();
  if (removed > 0) cache_.clear();
  return removed;
}

void Classifier::clear_rules() noexcept {
  rules_.clear();
  cache_.clear();
}

void Classifier::count_rule_hit(std::uint64_t id, std::int64_t bytes) {
  if (id == 0) return;
  RuleCounters& c = counters_[id];
  ++c.packets;
  c.bytes += bytes;
}

Verdict Classifier::apply(std::uint32_t m, const Packet& p, const Verdict& fallback) {
  if (m == kNoRule) return fallback;
  const Rule& rule = rules_[m].rule;
  count_rule_hit(rule.id, p.size_bytes);
  return rule.verdict;
}

Verdict Classifier::classify(const Packet& p, const Verdict& fallback) {
  ++stats_.lookups;
  if (rules_.empty()) {
    ++stats_.default_hits;
    return fallback;
  }
  if (const auto it = cache_.find(p.tuple); it != cache_.end()) {
    ++stats_.cache_hits;
    return apply(it->second, p, fallback);
  }
  std::uint32_t match = kNoRule;
  for (std::uint32_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].rule.matches(p.tuple)) {
      match = i;
      break;
    }
  }
  ++(match == kNoRule ? stats_.default_hits : stats_.rule_hits);
  if (cache_.size() < cache_capacity_) cache_.emplace(p.tuple, match);
  return apply(match, p, fallback);
}

RuleCounters Classifier::rule_counters(std::uint64_t id) const {
  const auto it = counters_.find(id);
  return it == counters_.end() ? RuleCounters{} : it->second;
}

}  // namespace xdrs::net
