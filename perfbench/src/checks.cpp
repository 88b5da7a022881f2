#include "checks.hpp"

#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/hash.hpp"

namespace perfbench {

std::string report_digest(const xdrs::core::RunReport& report) {
  return xdrs::util::hex16(xdrs::util::fnv1a(report.to_json()));
}

std::string invariant_violation(const xdrs::core::RunReport& r) {
  if (r.delivered_bytes > r.offered_bytes) return "delivered_bytes > offered_bytes";
  if (r.ocs_bytes + r.eps_bytes != r.delivered_bytes) {
    return "ocs_bytes + eps_bytes != delivered_bytes";
  }
  if (r.latency.count() != r.delivered_packets) return "latency.count() != delivered_packets";
  const std::int64_t class_total =
      std::accumulate(r.class_bytes.begin(), r.class_bytes.end(), std::int64_t{0});
  if (class_total != r.delivered_bytes) return "sum(class_bytes) != delivered_bytes";
  return {};
}

std::vector<std::string> load_expected_digests(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot read expected digests: " + path};
  std::vector<std::string> digests;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields{line};
    std::string digest;
    if (fields >> digest) digests.push_back(digest);
  }
  return digests;
}

void write_expected_digests(const std::string& path, const std::vector<std::string>& digests,
                            const std::vector<std::string>& labels) {
  std::ofstream out{path};
  for (std::size_t i = 0; i < digests.size(); ++i) {
    out << digests[i] << ' ' << (i < labels.size() ? labels[i] : std::string{}) << '\n';
  }
  if (!out) throw std::runtime_error{"cannot write expected digests: " + path};
}

void PointTally::check(std::size_t index, const xdrs::core::RunReport& report) {
  ++attempted_;
  const std::string digest = report_digest(report);
  digests_.push_back(digest);
  if (const std::string broken = invariant_violation(report); !broken.empty()) {
    fail(index, broken);
  } else if (!expected_.empty() && (index >= expected_.size() || expected_[index] != digest)) {
    fail(index, "report digest " + digest + " differs from the committed one");
  }
}

void PointTally::threw(std::size_t index, const std::string& what) {
  ++attempted_;
  digests_.emplace_back();
  fail(index, "threw: " + what);
}

void PointTally::fail(std::size_t index, const std::string& why) {
  failed_.insert(index);
  // Keep the output readable when a whole sweep fails the same way.
  if (errors_.size() < 8) errors_.push_back("point " + std::to_string(index) + ": " + why);
}

}  // namespace perfbench
