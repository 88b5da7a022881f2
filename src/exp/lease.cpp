#include "exp/lease.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include <unistd.h>

#include "stats/json.hpp"
#include "stats/serialize.hpp"
#include "util/file_io.hpp"

namespace xdrs::exp {

namespace fs = std::filesystem;

namespace {

/// Bump when the lease/done/gen file format changes.
constexpr std::uint64_t kLeaseSchema = 1;

constexpr std::string_view kLeaseSuffix = ".lease";
constexpr std::string_view kDoneSuffix = ".done";
constexpr std::string_view kGenSuffix = ".gen";

std::string default_owner() {
  char host[256] = "host";
  // gethostname may leave the buffer unterminated on truncation.
  if (::gethostname(host, sizeof host) != 0) host[0] = '\0';
  host[sizeof host - 1] = '\0';
  return std::string{host[0] != '\0' ? host : "host"} + ":" + std::to_string(::getpid()) + ":" +
         util::unique_tmp_token();
}

std::string lease_json(const std::string& owner, const std::string& hash, std::uint64_t attempt) {
  return "{\"lease_schema\":" + std::to_string(kLeaseSchema) + ",\"spec_hash\":\"" + hash +
         "\",\"owner\":\"" + stats::json_escape(owner) +
         "\",\"attempt\":" + std::to_string(attempt) + "}\n";
}

std::string gen_json(std::uint64_t attempt) {
  return "{\"lease_schema\":" + std::to_string(kLeaseSchema) +
         ",\"attempt\":" + std::to_string(attempt) + "}\n";
}

/// Best-effort read of one numeric/string field pair from a lease-family
/// file.  Half-written or vanished files are normal under concurrency —
/// callers get defaults, never exceptions.
struct LeaseFileFields {
  std::uint64_t attempt{1};
  std::string owner;
};

LeaseFileFields read_fields(const std::string& path) {
  LeaseFileFields out;
  const std::optional<std::string> raw = util::read_file(path);
  if (!raw) return out;
  try {
    const stats::JsonValue doc = stats::parse_json(*raw);
    if (const stats::JsonValue* attempt = doc.find("attempt")) out.attempt = attempt->as_u64();
    if (const stats::JsonValue* owner = doc.find("owner")) out.owner = owner->as_str();
  } catch (const std::invalid_argument&) {
  }
  return out;
}

/// Age of `path` in seconds against this host's view of the file clock;
/// nullopt when the file is gone (or unreadable — treat as "not stale",
/// somebody may be mid-publish).
std::optional<double> age_seconds(const std::string& path) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(path, ec);
  if (ec) return std::nullopt;
  const auto now = fs::file_time_type::clock::now();
  return std::chrono::duration_cast<std::chrono::duration<double>>(now - mtime).count();
}

/// Atomic publish-by-link: writes a unique temp beside `target`, links it
/// into place, removes the temp.  Returns false when the target already
/// exists (a concurrent publisher won) or on I/O failure, with
/// `target_existed` telling the two apart.
bool publish_exclusive(const std::string& target, const std::string& content,
                       bool& target_existed) {
  target_existed = false;
  const std::string tmp = target + ".tmp." + util::unique_tmp_token();
  try {
    util::write_file(tmp, content);
  } catch (const std::runtime_error&) {
    return false;
  }
  std::error_code ec;
  fs::create_hard_link(tmp, target, ec);
  std::error_code ignore;
  fs::remove(tmp, ignore);
  if (!ec) return true;
  target_existed = fs::exists(target, ignore);
  return false;
}

/// Atomic overwrite (temp + rename) for the generation file, where last
/// writer wins by design: only the thief that won the steal rename writes.
void publish_overwrite(const std::string& target, const std::string& content) {
  const std::string tmp = target + ".tmp." + util::unique_tmp_token();
  try {
    util::write_file(tmp, content);
  } catch (const std::runtime_error&) {
    return;
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec) fs::remove(tmp, ec);
}

}  // namespace

LeaseWorkSource::LeaseWorkSource(LeaseOptions opts, std::vector<std::string> point_hashes)
    : opts_{std::move(opts)},
      hashes_{std::move(point_hashes)},
      state_(hashes_.size(), PointState::kPending) {
  if (opts_.dir.empty()) throw std::runtime_error{"LeaseWorkSource: empty directory"};
  if (!(opts_.ttl_s > 0.0)) throw std::runtime_error{"LeaseWorkSource: ttl_s must be > 0"};
  if (opts_.owner.empty()) opts_.owner = default_owner();
  lease_dir_ = (fs::path{opts_.dir} / "leases").string();
  std::error_code ec;
  fs::create_directories(lease_dir_, ec);
  if (ec || !fs::is_directory(lease_dir_)) {
    throw std::runtime_error{"LeaseWorkSource: cannot create '" + lease_dir_ + "'"};
  }
  if (opts_.heartbeat) heartbeat_ = std::thread{[this] { heartbeat_loop(); }};
}

LeaseWorkSource::~LeaseWorkSource() {
  {
    const std::lock_guard<std::mutex> lock{wait_mutex_};
    stopping_ = true;
  }
  wait_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  if (!opts_.release_on_exit) return;
  // Orderly exit releases unfinished claims so other workers pick them up
  // immediately instead of after a TTL.  (A crashed worker never gets
  // here — that is exactly what the TTL requeue is for.)
  const std::lock_guard<std::mutex> lock{mutex_};
  for (const auto& [i, attempt] : attempts_) {
    if (state_[i] == PointState::kOurs) release_lease(i);
  }
}

std::string LeaseWorkSource::lease_path(std::size_t i) const {
  return (fs::path{lease_dir_} / (hashes_[i] + std::string{kLeaseSuffix})).string();
}
std::string LeaseWorkSource::done_path(std::size_t i) const {
  return (fs::path{lease_dir_} / (hashes_[i] + std::string{kDoneSuffix})).string();
}
std::string LeaseWorkSource::gen_path(std::size_t i) const {
  return (fs::path{lease_dir_} / (hashes_[i] + std::string{kGenSuffix})).string();
}

bool LeaseWorkSource::steal(std::size_t i) {
  const std::string lease = lease_path(i);
  const std::string away = lease + ".stale." + util::unique_tmp_token();
  std::error_code ec;
  fs::rename(lease, away, ec);
  if (ec) return false;  // another worker stole it, or the owner completed
  // We won the steal: bump the generation so whoever claims next (us
  // included) records this as a requeue attempt.
  const std::uint64_t prev = read_fields(away).attempt;
  publish_overwrite(gen_path(i), gen_json(prev + 1));
  fs::remove(away, ec);
  return true;
}

bool LeaseWorkSource::claim(std::size_t i) {
  const std::uint64_t attempt = std::max<std::uint64_t>(read_fields(gen_path(i)).attempt, 1);
  bool existed = false;
  if (!publish_exclusive(lease_path(i), lease_json(opts_.owner, hashes_[i], attempt), existed)) {
    return false;  // lost the claim race (or I/O trouble — either way, skip)
  }
  attempts_[i] = attempt;
  return true;
}

void LeaseWorkSource::release_lease(std::size_t i) {
  const std::string lease = lease_path(i);
  // Only remove a lease that is still ours: after a steal, the file at this
  // path is the thief's fresh claim and must survive.
  if (read_fields(lease).owner != opts_.owner) return;
  std::error_code ec;
  fs::remove(lease, ec);
}

std::optional<std::size_t> LeaseWorkSource::try_next() {
  const std::lock_guard<std::mutex> lock{mutex_};
  const std::size_t n = hashes_.size();
  std::size_t pending = 0;
  std::error_code ec;
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = (cursor_ + step) % n;
    PointState& st = state_[i];
    if (st == PointState::kDone) continue;
    if (st == PointState::kOurs) {
      ++pending;
      continue;
    }
    if (fs::exists(done_path(i), ec)) {
      st = PointState::kDone;
      ++stats_.already_done;
      // Janitor: a worker killed between publishing `done` and removing its
      // lease leaves an orphan claim; nobody will ever refresh or need it.
      if (fs::exists(lease_path(i), ec)) fs::remove(lease_path(i), ec);
      continue;
    }
    if (fs::exists(lease_path(i), ec)) {
      const std::optional<double> age = age_seconds(lease_path(i));
      if (!age || *age <= opts_.ttl_s) {
        ++pending;  // live claim (or mid-publish) — someone else's point, for now
        continue;
      }
      if (!steal(i)) {
        ++pending;  // another worker beat us to the steal
        continue;
      }
      ++stats_.requeued;
    }
    if (claim(i)) {
      st = PointState::kOurs;
      ++stats_.claimed;
      cursor_ = (i + 1) % n;
      return i;
    }
    ++pending;  // lost the claim race this round
  }
  exhausted_ = pending == 0;
  return std::nullopt;
}

std::optional<std::size_t> LeaseWorkSource::next_point() {
  const double poll = opts_.poll_s > 0.0 ? opts_.poll_s
                                         : std::clamp(opts_.ttl_s / 4.0, 0.05, 1.0);
  const auto period = std::chrono::duration<double>{poll};
  for (;;) {
    if (std::optional<std::size_t> i = try_next()) return i;
    if (exhausted()) return std::nullopt;
    // Everything still pending is leased to other workers: wait for one of
    // them to finish (we will see the done marker) or die (we will see the
    // lease go stale and requeue it).
    std::unique_lock<std::mutex> lock{wait_mutex_};
    wait_cv_.wait_for(lock, period, [this] { return stopping_; });
    if (stopping_) return std::nullopt;
  }
}

bool LeaseWorkSource::complete(std::size_t index) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (index >= state_.size() || state_[index] != PointState::kOurs) return false;
  const auto it = attempts_.find(index);
  const std::uint64_t attempt = it != attempts_.end() ? it->second : 1;
  bool existed = false;
  // The done marker carries the same {owner, attempt} record as the lease.
  const bool published = publish_exclusive(
      done_path(index), lease_json(opts_.owner, hashes_[index], attempt), existed);
  // `existed` means a stolen twin of this claim finished first — our copy
  // of the result must be dropped so the merge stays exactly-once.  A plain
  // I/O failure (disk full) is NOT a loss: our result is the only one, the
  // caller keeps it, and the missing marker merely risks recomputation.
  const bool lost = !published && existed;
  if (published) {
    std::error_code ec;
    fs::remove(gen_path(index), ec);
  }
  release_lease(index);
  state_[index] = PointState::kDone;
  if (it != attempts_.end()) attempts_.erase(it);
  if (lost) {
    ++stats_.lost;
  } else {
    ++stats_.completed;
  }
  return !lost;
}

void LeaseWorkSource::abandon(std::size_t index) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (index >= state_.size() || state_[index] != PointState::kOurs) return;
  release_lease(index);
  state_[index] = PointState::kPending;
  attempts_.erase(index);
}

std::size_t LeaseWorkSource::requeue_stale() {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::size_t requeued = 0;
  std::error_code ec;
  for (std::size_t i = 0; i < hashes_.size(); ++i) {
    if (state_[i] != PointState::kPending) continue;
    if (fs::exists(done_path(i), ec)) {
      state_[i] = PointState::kDone;
      ++stats_.already_done;
      if (fs::exists(lease_path(i), ec)) fs::remove(lease_path(i), ec);
      continue;
    }
    if (!fs::exists(lease_path(i), ec)) continue;
    const std::optional<double> age = age_seconds(lease_path(i));
    if (!age || *age <= opts_.ttl_s) continue;
    if (steal(i)) {
      ++requeued;
      ++stats_.requeued;
    }
  }
  return requeued;
}

WorkSourceStats LeaseWorkSource::stats() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return stats_;
}

bool LeaseWorkSource::exhausted() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return exhausted_;
}

void LeaseWorkSource::heartbeat_loop() {
  // Refresh well inside the TTL so a healthy worker's claim can never look
  // stale, even with a scheduling hiccup or NFS attribute-cache lag.
  const auto period =
      std::chrono::duration<double>{std::clamp(opts_.ttl_s / 3.0, 0.01, 10.0)};
  std::unique_lock<std::mutex> lock{wait_mutex_};
  while (!stopping_) {
    if (wait_cv_.wait_for(lock, period, [this] { return stopping_; })) return;
    lock.unlock();
    {
      const std::lock_guard<std::mutex> state_lock{mutex_};
      const auto now = fs::file_time_type::clock::now();
      for (const auto& [i, attempt] : attempts_) {
        if (state_[i] != PointState::kOurs) continue;
        std::error_code ec;
        fs::last_write_time(lease_path(i), now, ec);
      }
    }
    lock.lock();
  }
}

// ----------------------------------------------------------- status scans

LeaseScan scan_leases(const std::string& dir, const std::vector<std::string>& point_hashes,
                      double ttl_s) {
  const fs::path base = fs::path{dir} / "leases";
  LeaseScan scan;
  scan.points.reserve(point_hashes.size());
  std::error_code ec;
  for (std::size_t i = 0; i < point_hashes.size(); ++i) {
    LeaseScan::Point p;
    p.index = i;
    const std::string done = (base / (point_hashes[i] + std::string{kDoneSuffix})).string();
    const std::string lease = (base / (point_hashes[i] + std::string{kLeaseSuffix})).string();
    const std::string gen = (base / (point_hashes[i] + std::string{kGenSuffix})).string();
    if (fs::exists(done, ec)) {
      const LeaseFileFields f = read_fields(done);
      p.state = LeaseScan::State::kDone;
      p.attempt = f.attempt;
      p.owner = f.owner;
      ++scan.done;
    } else if (fs::exists(lease, ec)) {
      const LeaseFileFields f = read_fields(lease);
      const std::optional<double> age = age_seconds(lease);
      p.state = (!age || *age <= ttl_s) ? LeaseScan::State::kLive : LeaseScan::State::kStale;
      p.attempt = f.attempt;
      p.owner = f.owner;
      ++(p.state == LeaseScan::State::kLive ? scan.live : scan.stale);
    } else {
      p.state = LeaseScan::State::kUnclaimed;
      // An unclaimed point can still have been requeued: the generation
      // survives between a steal and the next claim.
      if (fs::exists(gen, ec)) p.attempt = read_fields(gen).attempt;
      ++scan.unclaimed;
    }
    if (p.attempt > 1) ++scan.requeued;
    scan.points.push_back(std::move(p));
  }
  return scan;
}

}  // namespace xdrs::exp
