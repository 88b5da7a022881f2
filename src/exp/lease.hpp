// Lease-based work stealing across processes and hosts.
//
// Any number of worker processes — on one machine or many sharing a
// filesystem — run the same grid against the same directory, and lease
// files arbitrate who computes what.  Points are identified by their
// content hash (exp/cache.hpp spec_hash_hex), so every participant derives
// identical lease names from the preset alone.  Per point, under
// <dir>/leases/:
//
//   <hash>.lease   a live claim: single-line JSON {owner, attempt},
//                  mtime refreshed by the owner's heartbeat thread
//   <hash>.done    completion marker: {owner, attempt}
//   <hash>.gen     requeue generation: bumped when a stale lease is stolen,
//                  so the next claimant's attempt number records the requeue
//
// All mutations are atomic on POSIX filesystems:
//   claim     write unique temp, then link(temp, lease) — EEXIST means a
//             concurrent claimer won, nobody ever half-claims
//   steal     rename(lease, unique name) — only one stealer's rename of the
//             same path succeeds, the losers see ENOENT
//   complete  write unique temp, then link(temp, done) — EEXIST means a
//             stolen twin finished first and OUR result must be dropped,
//             keeping merges exactly-once
//
// A worker that dies stops heartbeating; once its lease's mtime is older
// than the TTL any other worker steals the claim, bumps the generation and
// recomputes the point.  Because the simulator is deterministic, a requeued
// point's report is byte-identical no matter who finally computes it —
// merged artefacts cannot tell elastic runs from static ones (CI-gated).
//
// Clocks: staleness compares the shared filesystem's mtimes against this
// host's clock, so pick TTLs well above cross-host clock skew and NFS
// attribute-cache lag (seconds, not milliseconds, for real fleets).
#ifndef XDRS_EXP_LEASE_HPP
#define XDRS_EXP_LEASE_HPP

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exp/work_source.hpp"

namespace xdrs::exp {

struct LeaseOptions {
  /// Shared sweep directory (typically the result-cache dir); lease state
  /// lives in <dir>/leases, beside — never mixed with — cache entries.
  std::string dir;
  /// Claims whose lease mtime is older than this count as dead and get
  /// requeued.  Must comfortably exceed heartbeat period + clock skew.
  double ttl_s{60.0};
  /// Worker identity written into lease/done files; empty = generated
  /// "<host>:<pid>:<token>", unique per source instance.
  std::string owner;
  /// How long next_point() sleeps between claim scans when every pending
  /// point is leased to someone else; 0 = ttl/4 clamped to [50ms, 1s].
  double poll_s{0.0};
  /// Failure injection for tests: a worker that never heartbeats looks
  /// dead to everyone else one TTL after each claim.
  bool heartbeat{true};
  /// Failure injection for tests: false simulates `kill -9` — the
  /// destructor leaves in-flight leases behind for others to requeue.
  bool release_on_exit{true};
};

/// Work-stealing WorkSource over lease files.  Thread-safe within one
/// process; instances in different processes coordinate purely through the
/// shared directory.
class LeaseWorkSource final : public WorkSource {
 public:
  /// `point_hashes[i]` is spec_hash_hex of grid point i — every worker of
  /// the same grid derives the same names.  Creates <dir>/leases; throws
  /// std::runtime_error if it cannot.
  LeaseWorkSource(LeaseOptions opts, std::vector<std::string> point_hashes);
  ~LeaseWorkSource() override;

  LeaseWorkSource(const LeaseWorkSource&) = delete;
  LeaseWorkSource& operator=(const LeaseWorkSource&) = delete;

  [[nodiscard]] std::optional<std::size_t> next_point() override;
  bool complete(std::size_t index) override;
  void abandon(std::size_t index) override;
  std::size_t requeue_stale() override;
  [[nodiscard]] WorkSourceStats stats() const override;

  /// One non-blocking claim pass (what next_point() loops over): requeues
  /// any stale lease it meets, claims and returns the first claimable
  /// point, or returns nullopt when nothing is claimable right now.
  [[nodiscard]] std::optional<std::size_t> try_next();

  /// True once a scan has found every point complete.
  [[nodiscard]] bool exhausted() const;

  [[nodiscard]] const std::string& owner() const noexcept { return opts_.owner; }

 private:
  enum class PointState : char { kPending, kOurs, kDone };

  [[nodiscard]] std::string lease_path(std::size_t i) const;
  [[nodiscard]] std::string done_path(std::size_t i) const;
  [[nodiscard]] std::string gen_path(std::size_t i) const;
  /// Steals a stale lease (atomic rename) and bumps the generation file;
  /// false when another worker stole or completed it first.
  bool steal(std::size_t i);
  /// Attempts the atomic link-claim of point i; records the attempt number
  /// from the generation file on success.
  bool claim(std::size_t i);
  /// Removes our lease file if it is still ours (a stolen lease belongs to
  /// the thief and is left alone).
  void release_lease(std::size_t i);
  void heartbeat_loop();

  LeaseOptions opts_;
  std::vector<std::string> hashes_;
  std::string lease_dir_;  // <dir>/leases

  mutable std::mutex mutex_;  // guards state_, attempts_, stats_, cursor_, exhausted_
  std::vector<PointState> state_;
  std::map<std::size_t, std::uint64_t> attempts_;  // in-flight claims -> attempt number
  WorkSourceStats stats_;
  std::size_t cursor_{0};
  bool exhausted_{false};

  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
  bool stopping_{false};  // guarded by wait_mutex_
  std::thread heartbeat_;
};

// ----------------------------------------------------------- status scans

/// Point-by-point lease state of one grid, as `sweepctl status --leases`
/// reports it.
struct LeaseScan {
  enum class State : char { kUnclaimed, kLive, kStale, kDone };
  struct Point {
    std::size_t index{0};
    State state{State::kUnclaimed};
    std::uint64_t attempt{1};
    std::string owner;  // of the lease or done marker, when readable
  };
  std::size_t done{0};
  std::size_t live{0};
  std::size_t stale{0};
  std::size_t unclaimed{0};
  std::size_t requeued{0};  ///< points whose attempt (done/lease/gen) exceeds 1
  std::vector<Point> points;
};

/// Read-only scan of <dir>/leases for the given grid hashes; `ttl_s` is the
/// live/stale boundary.  Never throws on unreadable state — a half-written
/// lease is another worker's business.
[[nodiscard]] LeaseScan scan_leases(const std::string& dir,
                                    const std::vector<std::string>& point_hashes, double ttl_s);

}  // namespace xdrs::exp

#endif  // XDRS_EXP_LEASE_HPP
