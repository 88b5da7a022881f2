// Output checks applied to every point the benchmark runs.  A point fails
// when it throws, breaks one of the report invariants below, or — at the
// default seed — its RunReport::to_json() digest differs from the one
// committed in perfbench/expected/.
#ifndef XDRS_PERFBENCH_CHECKS_HPP
#define XDRS_PERFBENCH_CHECKS_HPP

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace perfbench {

/// FNV-1a 64 of report.to_json(), as 16 hex digits.
[[nodiscard]] std::string report_digest(const xdrs::core::RunReport& report);

/// Empty when the report is self-consistent; otherwise names the first
/// broken invariant:
///   delivered_bytes <= offered_bytes
///   ocs_bytes + eps_bytes == delivered_bytes
///   latency.count() == delivered_packets
///   sum(class_bytes) == delivered_bytes
[[nodiscard]] std::string invariant_violation(const xdrs::core::RunReport& report);

/// Reads expected digests, one per line in grid order ("<digest> <label>";
/// the label is informational).  Throws std::runtime_error when the file
/// cannot be read.
[[nodiscard]] std::vector<std::string> load_expected_digests(const std::string& path);

/// Writes digests in the format load_expected_digests() reads.
void write_expected_digests(const std::string& path, const std::vector<std::string>& digests,
                            const std::vector<std::string>& labels);

/// Failure accounting over the points of one run.
class PointTally {
 public:
  /// `expected` empty: invariants only (any seed but the default one).
  explicit PointTally(std::vector<std::string> expected = {}) : expected_{std::move(expected)} {}

  /// Checks the report of grid point `index` and records its digest.
  void check(std::size_t index, const xdrs::core::RunReport& report);
  /// Records a point that threw instead of producing a report.
  void threw(std::size_t index, const std::string& what);
  /// Marks grid point `index` failed for a reason found outside its report
  /// (traced and untraced reports differ, say).  A point counts once.
  void fail(std::size_t index, const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_.size(); }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept { return errors_; }
  /// Digest of each checked point, in check order.
  [[nodiscard]] const std::vector<std::string>& digests() const noexcept { return digests_; }

 private:
  std::vector<std::string> expected_;
  std::vector<std::string> digests_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_{0};
  std::set<std::size_t> failed_;
};

}  // namespace perfbench

#endif  // XDRS_PERFBENCH_CHECKS_HPP
