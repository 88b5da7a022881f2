#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include <filesystem>

#include "core/report_io.hpp"
#include "exp/cache.hpp"
#include "exp/lease.hpp"
#include "obs/telemetry.hpp"
#include "stats/json.hpp"
#include "util/file_io.hpp"

namespace xdrs::exp {

namespace {

/// Bump when the shard-file envelope (not the report schema) changes.
constexpr std::uint64_t kShardSchema = 1;

/// Simulates one point with the observability layer on and drops its
/// telemetry sidecar into `dir`.  The report is the same object a plain
/// run_scenario() returns — telemetry is sidecar-only, so downstream
/// artefacts cannot tell the difference (CI-gated).  The sidecar write is
/// best-effort, like cache stores: a full disk never aborts a sweep.
core::RunReport run_with_telemetry(const ScenarioSpec& spec, const std::string& dir) {
  std::unique_ptr<topo::FatTree> ft = materialize_fat_tree(spec);
  ft->enable_telemetry();
  core::RunReport report = ft->run(spec.duration, spec.warmup);
  const std::string hash = spec_hash_hex(spec);
  const std::string doc =
      obs::telemetry_sidecar_json(*ft->telemetry(), spec.key(), hash, spec.scenario);
  try {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    util::write_file((std::filesystem::path{dir} / (hash + ".telemetry.json")).string(), doc);
  } catch (const std::exception&) {
  }
  return report;
}

}  // namespace

// ------------------------------------------------------------- ExecutionPlan

WorkSourceSpec ExecutionPlan::resolved_source() const {
  if (source.kind == WorkSourceSpec::Kind::kLease) {
    if (source.lease_dir.empty()) {
      throw std::invalid_argument{"ExecutionPlan: source.lease_dir must not be empty"};
    }
    if (!(source.lease_ttl_s > 0.0)) {
      throw std::invalid_argument{"ExecutionPlan: source.lease_ttl_s must be > 0"};
    }
    return source;
  }
  if (source.shard.count == 0) {
    throw std::invalid_argument{"ExecutionPlan: source.shard.count must be >= 1 (got 0)"};
  }
  if (source.shard.index >= source.shard.count) {
    throw std::invalid_argument{"ExecutionPlan: source.shard.index " +
                                std::to_string(source.shard.index) + " not in [0, " +
                                std::to_string(source.shard.count) + ")"};
  }
  return source;
}

// --------------------------------------------------------------- SweepResult

core::RunReport SweepResult::merged() const {
  core::RunReport total;
  for (const auto& p : points) total.merge(p.report);
  return total;
}

namespace {

std::vector<stats::Field> point_fields(const PointResult& p) {
  std::vector<stats::Field> f = p.spec.fields();
  std::vector<stats::Field> r = p.report.fields();
  f.insert(f.end(), std::make_move_iterator(r.begin()), std::make_move_iterator(r.end()));
  return f;
}

}  // namespace

std::string SweepResult::to_csv() const {
  std::string out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto fields = point_fields(points[i]);
    if (i == 0) out += stats::csv_header(fields) + '\n';
    out += stats::csv_row(fields) + '\n';
  }
  return out;
}

std::string SweepResult::to_json() const {
  std::string out{"{\n  \"points\": [\n"};
  for (std::size_t i = 0; i < points.size(); ++i) {
    out += "    " + stats::to_json_object(point_fields(points[i]));
    if (i + 1 < points.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n  \"merged\": " + merged().to_json() + "\n}\n";
  return out;
}

stats::Table SweepResult::table(const std::vector<std::string>& columns) const {
  stats::Table t{columns};
  for (const auto& p : points) {
    const auto fields = point_fields(p);
    auto& row = t.row();
    for (const auto& col : columns) {
      const auto it = std::find_if(fields.begin(), fields.end(),
                                   [&col](const stats::Field& f) { return f.name() == col; });
      row.cell(it == fields.end() ? std::string{"-"} : it->csv());
    }
  }
  return t;
}

// ------------------------------------------------------- sharded reassembly

std::string SweepResult::to_shard_json() const {
  // A well-formed worker result holds its points in strictly ascending grid
  // order within the grid — what both the static hand-out order and the
  // lease compaction produce.  Anything else is corrupted metadata.
  for (std::size_t j = 0; j < points.size(); ++j) {
    if (points[j].index >= grid_size || (j > 0 && points[j].index <= points[j - 1].index)) {
      throw std::invalid_argument{"to_shard_json: result does not match its shard/grid metadata"};
    }
  }
  if (shard.count == 0) {
    throw std::invalid_argument{"to_shard_json: result does not match its shard/grid metadata"};
  }
  std::string out{"{\n  \"sweep_schema\": "};
  out += std::to_string(kShardSchema);
  out += ",\n  \"schema_version\": " + std::to_string(core::RunReport::kSchemaVersion);
  out += ",\n  \"shard_index\": " + std::to_string(shard.index);
  out += ",\n  \"shard_count\": " + std::to_string(shard.count);
  out += ",\n  \"grid_size\": " + std::to_string(grid_size);
  out += ",\n  \"points\": [\n";
  for (std::size_t j = 0; j < points.size(); ++j) {
    const PointResult& p = points[j];
    out += "    {\"index\":" + std::to_string(p.index);
    out += ",\"spec_hash\":\"" + spec_hash_hex(p.spec) + '"';
    out += ",\"key\":\"" + stats::json_escape(p.spec.key()) + '"';
    out += ",\"wall_us\":" + std::to_string(p.wall_us);
    out += ",\"cached\":";
    out += p.cached ? "true" : "false";
    out += ",\"report\":" + core::report_state_json(p.report) + '}';
    if (j + 1 < points.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

SweepResult SweepResult::merge_shards(const std::vector<ScenarioSpec>& grid,
                                      const std::vector<std::string>& shard_jsons) {
  return merge_shards(grid, shard_jsons, nullptr);
}

SweepResult SweepResult::merge_shards(const std::vector<ScenarioSpec>& grid,
                                      const std::vector<std::string>& shard_jsons,
                                      ResultCache* fill_cache) {
  SweepResult result;
  result.grid_size = grid.size();
  result.points.resize(grid.size());
  std::vector<bool> covered(grid.size(), false);

  for (std::size_t s = 0; s < shard_jsons.size(); ++s) {
    const auto fail = [s](const std::string& what) {
      throw std::invalid_argument{"merge_shards: shard " + std::to_string(s) + ": " + what};
    };
    stats::JsonValue doc;
    try {
      doc = stats::parse_json(shard_jsons[s]);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
    if (doc.at("sweep_schema").as_u64() != kShardSchema) fail("unsupported sweep_schema");
    if (doc.at("schema_version").as_u64() != core::RunReport::kSchemaVersion) {
      fail("report schema_version mismatch");
    }
    if (doc.at("grid_size").as_u64() != grid.size()) {
      fail("grid_size " + doc.at("grid_size").number_text() + " != expected grid of " +
           std::to_string(grid.size()));
    }
    for (const stats::JsonValue& entry : doc.at("points").items()) {
      const std::uint64_t index = entry.at("index").as_u64();
      if (index >= grid.size()) fail("point index " + std::to_string(index) + " out of range");
      if (covered[index]) fail("point " + std::to_string(index) + " already covered");
      // The stored hash ties the report to the exact spec the shard ran;
      // comparing against the caller's grid rejects stale shard files after
      // a grid or schema edit.
      if (entry.at("spec_hash").as_str() != spec_hash_hex(grid[index])) {
        fail("point " + std::to_string(index) + " spec hash does not match the grid");
      }
      result.points[index].spec = grid[index];
      result.points[index].index = index;
      try {
        result.points[index].report = core::report_from_state(entry.at("report"));
        result.points[index].wall_us = entry.at("wall_us").as_i64();
        result.points[index].cached = entry.at("cached").as_bool();
      } catch (const std::invalid_argument& e) {
        fail("point " + std::to_string(index) + ": " + e.what());
      }
      covered[index] = true;
    }
  }

  // Backfill pass for elastic sweeps: a worker killed between computing a
  // point (cache store) and publishing its shard file leaves the report in
  // the shared cache — recover it from there rather than failing the merge.
  if (fill_cache != nullptr) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (covered[i]) continue;
      std::optional<core::RunReport> hit = fill_cache->lookup(grid[i]);
      if (!hit) continue;
      result.points[i].spec = grid[i];
      result.points[i].index = i;
      result.points[i].report = *std::move(hit);
      result.points[i].cached = true;
      covered[i] = true;
    }
  }

  const std::size_t missing =
      static_cast<std::size_t>(std::count(covered.begin(), covered.end(), false));
  if (missing != 0) {
    throw std::invalid_argument{"merge_shards: " + std::to_string(missing) + " of " +
                                std::to_string(grid.size()) + " grid points missing"};
  }
  return result;
}

// ---------------------------------------------------------- ExperimentRunner

namespace {

/// Materialises the plan's work source against one grid.
std::unique_ptr<WorkSource> make_work_source(const WorkSourceSpec& spec,
                                             const std::vector<ScenarioSpec>& grid) {
  if (spec.kind == WorkSourceSpec::Kind::kStatic) {
    return std::make_unique<StaticShardSource>(spec.shard, grid.size());
  }
  std::vector<std::string> hashes;
  hashes.reserve(grid.size());
  for (const ScenarioSpec& s : grid) hashes.push_back(spec_hash_hex(s));
  LeaseOptions lo;
  lo.dir = spec.lease_dir;
  lo.ttl_s = spec.lease_ttl_s;
  return std::make_unique<LeaseWorkSource>(std::move(lo), std::move(hashes));
}

}  // namespace

SweepResult ExperimentRunner::run(const std::vector<ScenarioSpec>& grid) const {
  const WorkSourceSpec source_spec = plan_.resolved_source();

  SweepResult result;
  result.shard =
      source_spec.kind == WorkSourceSpec::Kind::kStatic ? source_spec.shard : ShardOptions{};
  result.grid_size = grid.size();
  if (grid.empty()) return result;

  const std::unique_ptr<WorkSource> source = make_work_source(source_spec, grid);
  // The progress denominator: exact for a static slice, the whole grid for
  // elastic runs (how much THIS worker wins is unknowable up front).
  const std::size_t total_hint = source_spec.kind == WorkSourceSpec::Kind::kStatic
                                     ? source_spec.shard.owned_of(grid.size())
                                     : grid.size();
  if (total_hint == 0) return result;

  // Completion order is nondeterministic (threads, steals), so workers drop
  // results into grid-indexed slots and the tail compacts them in grid
  // order — the artefact bytes can't tell how points were claimed.
  std::vector<PointResult> slots(grid.size());
  std::vector<char> filled(grid.size(), 0);  // char: vector<bool> is not thread-safe
  std::atomic<bool> failed{false};
  std::size_t completed = 0;
  std::mutex mutex;  // guards `completed`, `error` and the progress callback
  std::exception_ptr error;

  const auto work = [&] {
    for (;;) {
      // A failed point aborts the whole sweep: don't burn the remaining
      // grid on the surviving workers just to rethrow afterwards.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::optional<std::size_t> claim = source->next_point();
      if (!claim) return;
      const std::size_t i = *claim;
      PointResult& slot = slots[i];
      slot.spec = grid[i];
      slot.index = i;
      const auto point_began = std::chrono::steady_clock::now();
      try {
        std::optional<core::RunReport> cached;
        if (plan_.cache != nullptr) cached = plan_.cache->lookup(slot.spec);
        if (cached) {
          slot.report = *std::move(cached);
          slot.cached = true;
        } else {
          slot.report = plan_.telemetry_dir.empty()
                            ? run_scenario(slot.spec)
                            : run_with_telemetry(slot.spec, plan_.telemetry_dir);
          if (plan_.cache != nullptr) {
            // Caching is best-effort: a full disk or permission flap on the
            // cache directory must not abort a sweep whose simulations are
            // succeeding.  The cache counts the failure (store_failures).
            // For lease runs the order matters: the store precedes the
            // completion marker, so a completed point's report is always
            // recoverable from the cache even if this process dies now.
            try {
              plan_.cache->store(slot.spec, slot.report);
            } catch (const std::runtime_error&) {
            }
          }
        }
      } catch (...) {
        source->abandon(i);
        failed.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock{mutex};
        if (!error) error = std::current_exception();
        return;
      }
      slot.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - point_began)
                         .count();
      // complete() returning false means another worker finished a stolen
      // twin of this claim first; drop our copy so merges stay exactly-once.
      if (source->complete(i)) filled[i] = 1;
      if (plan_.progress) {
        const std::lock_guard<std::mutex> lock{mutex};
        plan_.progress(++completed, total_hint, slot.spec);
      }
    }
  };

  unsigned threads = plan_.threads != 0 ? plan_.threads
                                        : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, total_hint));

  if (threads <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
    for (auto& t : pool) t.join();
  }

  result.source_stats = source->stats();
  if (error) std::rethrow_exception(error);

  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (filled[i] != 0) result.points.push_back(std::move(slots[i]));
  }
  return result;
}

// ------------------------------------------------------------------- grids

std::vector<ScenarioSpec> expand(const std::vector<ScenarioSpec>& in,
                                 const std::vector<Mutator>& axis) {
  if (axis.empty()) throw std::invalid_argument{"expand: empty axis"};
  std::vector<ScenarioSpec> out;
  out.reserve(in.size() * axis.size());
  for (const auto& spec : in) {
    for (const auto& mutate : axis) {
      ScenarioSpec s = spec;
      mutate(s);
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<Mutator> axis_ports(const std::vector<std::uint32_t>& values) {
  std::vector<Mutator> axis;
  axis.reserve(values.size());
  for (const std::uint32_t v : values) {
    axis.push_back([v](ScenarioSpec& s) { s.with_ports(v); });
  }
  return axis;
}

std::vector<Mutator> axis_load(const std::vector<double>& values) {
  std::vector<Mutator> axis;
  axis.reserve(values.size());
  for (const double v : values) {
    axis.push_back([v](ScenarioSpec& s) { s.with_load(v); });
  }
  return axis;
}

std::vector<Mutator> axis_matcher(const std::vector<std::string>& specs) {
  std::vector<Mutator> axis;
  axis.reserve(specs.size());
  for (const auto& v : specs) {
    axis.push_back([v](ScenarioSpec& s) { s.with_matcher(v); });
  }
  return axis;
}

std::vector<Mutator> axis_circuit(const std::vector<std::string>& specs) {
  std::vector<Mutator> axis;
  axis.reserve(specs.size());
  for (const auto& v : specs) {
    axis.push_back([v](ScenarioSpec& s) { s.with_circuit(v); });
  }
  return axis;
}

std::vector<Mutator> axis_estimator(const std::vector<std::string>& specs) {
  std::vector<Mutator> axis;
  axis.reserve(specs.size());
  for (const auto& v : specs) {
    axis.push_back([v](ScenarioSpec& s) { s.with_estimator(v); });
  }
  return axis;
}

std::vector<Mutator> axis_timing(const std::vector<std::string>& models) {
  std::vector<Mutator> axis;
  axis.reserve(models.size());
  for (const auto& v : models) {
    axis.push_back([v](ScenarioSpec& s) { s.with_timing(v); });
  }
  return axis;
}

std::vector<Mutator> axis_seed(const std::vector<std::uint64_t>& seeds) {
  std::vector<Mutator> axis;
  axis.reserve(seeds.size());
  for (const std::uint64_t v : seeds) {
    axis.push_back([v](ScenarioSpec& s) { s.with_seed(v); });
  }
  return axis;
}

std::vector<Mutator> axis_racks(const std::vector<std::uint32_t>& values) {
  std::vector<Mutator> axis;
  axis.reserve(values.size());
  for (const std::uint32_t v : values) {
    axis.push_back([v](ScenarioSpec& s) { s.with_racks(v); });
  }
  return axis;
}

std::vector<Mutator> axis_oversubscription(const std::vector<double>& values) {
  std::vector<Mutator> axis;
  axis.reserve(values.size());
  for (const double v : values) {
    axis.push_back([v](ScenarioSpec& s) { s.with_oversubscription(v); });
  }
  return axis;
}

std::vector<Mutator> axis_locality(const std::vector<double>& values) {
  std::vector<Mutator> axis;
  axis.reserve(values.size());
  for (const double v : values) {
    axis.push_back([v](ScenarioSpec& s) { s.with_locality(v); });
  }
  return axis;
}

}  // namespace xdrs::exp
