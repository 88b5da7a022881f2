// Content-addressed result cache for sweep points.
//
// A sweep point is fully determined by its ScenarioSpec (the simulator is
// deterministic), so its RunReport can be cached on disk and reused across
// runs, processes and hosts.  The key is a stable 64-bit FNV-1a hash of the
// spec's canonical identity (ScenarioSpec::identity_json) plus
// RunReport::kSchemaVersion — change any axis value, any policy spec the
// discipline consumes, or the report schema and the point gets a fresh
// entry; points differing only in a kind their discipline never builds
// share one.  One JSON file per identity:
//
//   <dir>/<16-hex-digit spec hash>.json
//     { "cache_schema": 1, "schema_version": 2, "spec_hash": "…",
//       "spec": { …ScenarioSpec::identity_json()… },
//       "report": { …full report state (core/report_io)… } }
//
// lookup() verifies the stored spec object byte-for-byte against the probe
// spec before trusting an entry, so hash collisions and any semantic drift
// in the spec encoding invalidate automatically (counted as `stale`, same
// as schema mismatches and unparseable files).  Writes go through a
// temp-file rename, so concurrent shard processes can share one directory.
// gc() only ever touches regular files matching the cache's own
// `<16-hex>.json[.tmp.*]` naming scheme.
#ifndef XDRS_EXP_CACHE_HPP
#define XDRS_EXP_CACHE_HPP

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "exp/scenario.hpp"

namespace xdrs::exp {

/// Stable content hash of one sweep point: FNV-1a 64 over the spec's
/// exhaustive serialized identity (ScenarioSpec::identity_json(), a
/// superset of fields()) and the report schema version.
[[nodiscard]] std::uint64_t spec_hash(const ScenarioSpec& spec);

/// spec_hash() as the canonical 16-hex-digit string used in entry
/// filenames and shard-file "spec_hash" members.
[[nodiscard]] std::string spec_hash_hex(const ScenarioSpec& spec);

/// Running hit/miss accounting of one ResultCache.
struct CacheStats {
  std::uint64_t hits{0};            ///< entry present and valid
  std::uint64_t misses{0};          ///< no entry file
  std::uint64_t stale{0};           ///< entry present but invalid (schema/spec mismatch)
  std::uint64_t stores{0};          ///< entries written
  std::uint64_t store_failures{0};  ///< writes that failed (counted before store() throws)
};

/// What one gc() pass did.
struct GcStats {
  std::uint64_t removed{0};  ///< entries (and orphaned temp files) deleted
  std::uint64_t kept{0};     ///< entries young enough to survive
};

class ResultCache {
 public:
  /// Opens (creating if needed) the cache directory.  Throws
  /// std::runtime_error if the directory cannot be created.
  explicit ResultCache(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  [[nodiscard]] static std::string entry_name(const ScenarioSpec& spec);
  [[nodiscard]] std::string entry_path(const ScenarioSpec& spec) const;

  /// Returns the cached report for `spec`, or nullopt (miss or stale).
  /// Thread-safe; never throws on bad cache contents — a corrupt entry is
  /// just stale.
  [[nodiscard]] std::optional<core::RunReport> lookup(const ScenarioSpec& spec);

  /// Writes/overwrites the entry for `spec` atomically (temp file + rename).
  /// Throws std::runtime_error on I/O failure.
  void store(const ScenarioSpec& spec, const core::RunReport& report);

  /// Evicts entries whose file modification time is older than `keep_days`
  /// days (lookups refresh nothing, so age == time since the point was
  /// stored).  Only files matching the cache's own naming scheme are
  /// touched: "<16 hex>.json" entries and their orphaned
  /// "<16 hex>.json.tmp.*" temp files (crashed writers); anything else in
  /// the directory is left alone.  Unreadable/undeletable files are
  /// skipped, never fatal.
  GcStats gc(double keep_days);

  [[nodiscard]] CacheStats stats() const;

 private:
  /// The one place the "<16-hex-hash>.json" naming scheme lives: lookup(),
  /// store() and entry_path() all go through it, so the scheme cannot
  /// drift between writer and reader.
  [[nodiscard]] std::string path_for(const std::string& hash_hex) const;

  std::string dir_;
  mutable std::mutex mutex_;  // guards stats_; file I/O needs no lock
  CacheStats stats_;
};

}  // namespace xdrs::exp

#endif  // XDRS_EXP_CACHE_HPP
