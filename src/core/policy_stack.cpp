#include "core/policy_stack.hpp"

#include <stdexcept>

#include "schedulers/policy_registry.hpp"

namespace xdrs::core {

namespace {

using schedulers::PolicyKind;
using schedulers::PolicyRegistry;

std::string* field_of(PolicyStack& stack, PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kMatcher: return &stack.matcher;
    case PolicyKind::kCircuit: return &stack.circuit;
    case PolicyKind::kEstimator: return &stack.estimator;
    case PolicyKind::kTiming: return &stack.timing;
  }
  return nullptr;
}

PolicyKind kind_from_key(std::string_view key, std::string_view segment) {
  if (key == "matcher") return PolicyKind::kMatcher;
  if (key == "circuit") return PolicyKind::kCircuit;
  if (key == "estimator") return PolicyKind::kEstimator;
  if (key == "timing") return PolicyKind::kTiming;
  throw std::invalid_argument{"PolicyStack: bad kind '" + std::string{key} + "' in segment '" +
                              std::string{segment} +
                              "' (want matcher=, circuit=, estimator= or timing=)"};
}

}  // namespace

PolicyStack PolicyStack::parse(std::string_view spec) {
  PolicyStack stack;
  const auto& registry = PolicyRegistry::instance();
  bool assigned[4] = {false, false, false, false};

  while (!spec.empty()) {
    const auto slash = spec.find('/');
    std::string_view segment = spec.substr(0, slash);
    spec = slash == std::string_view::npos ? std::string_view{} : spec.substr(slash + 1);
    if (segment.empty()) continue;  // tolerate "a//b" and trailing '/'

    PolicyKind kind;
    const auto eq = segment.find('=');
    if (eq != std::string_view::npos) {
      kind = kind_from_key(segment.substr(0, eq), segment);
      segment = segment.substr(eq + 1);
      // A kind prefix narrows classification; the name must still exist, or
      // a typo would silently ride along until (or past) construction time.
      const auto name = segment.substr(0, segment.find(':'));
      if (!registry.knows(kind, name)) {
        throw std::invalid_argument{"PolicyStack: unknown " +
                                    std::string{schedulers::to_string(kind)} + " '" +
                                    std::string{segment} + "'"};
      }
    } else {
      const auto name = segment.substr(0, segment.find(':'));
      const auto kinds = registry.kinds_of(name);
      if (kinds.empty()) {
        throw std::invalid_argument{"PolicyStack: unknown policy '" + std::string{segment} +
                                    "' (no kind registers the name '" + std::string{name} + "')"};
      }
      if (kinds.size() > 1) {
        throw std::invalid_argument{"PolicyStack: ambiguous policy '" + std::string{segment} +
                                    "' — prefix it with its kind, e.g. 'matcher=" +
                                    std::string{segment} + "'"};
      }
      kind = kinds.front();
    }

    const auto idx = static_cast<std::size_t>(kind);
    if (assigned[idx]) {
      throw std::invalid_argument{"PolicyStack: duplicate " +
                                  std::string{schedulers::to_string(kind)} + " in '" +
                                  std::string{segment} + "'"};
    }
    assigned[idx] = true;
    *field_of(stack, kind) = std::string{segment};
  }
  return stack;
}

PolicyStack PolicyStack::effective(SchedulingDiscipline d) const {
  PolicyStack out = *this;
  for (const PolicyKind kind : {PolicyKind::kMatcher, PolicyKind::kCircuit,
                                PolicyKind::kEstimator, PolicyKind::kTiming}) {
    if (!consumes(d, kind)) *field_of(out, kind) = "-";
  }
  return out;
}

std::string PolicyStack::to_string() const {
  // Names registered under more than one kind would parse back as
  // ambiguous; qualify exactly those so parse(to_string()) always
  // round-trips.
  const auto& registry = PolicyRegistry::instance();
  const auto segment = [&registry](PolicyKind kind, const std::string& spec) -> std::string {
    const std::string_view name = std::string_view{spec}.substr(0, spec.find(':'));
    if (registry.kinds_of(name).size() > 1) {
      return std::string{schedulers::to_string(kind)} + "=" + spec;
    }
    return spec;
  };
  return segment(PolicyKind::kMatcher, matcher) + "/" + segment(PolicyKind::kCircuit, circuit) +
         "/" + segment(PolicyKind::kEstimator, estimator) + "/" +
         segment(PolicyKind::kTiming, timing);
}

}  // namespace xdrs::core
