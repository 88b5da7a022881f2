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
#include <unordered_map>

#include <filesystem>

#include "core/report_io.hpp"
#include "exp/cache.hpp"
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
  // A well-formed shard result holds its points in strictly ascending grid
  // order within the grid — what the runner's compaction produces.
  // Anything else is corrupted metadata.
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

  const std::size_t missing =
      static_cast<std::size_t>(std::count(covered.begin(), covered.end(), false));
  if (missing != 0) {
    throw std::invalid_argument{"merge_shards: " + std::to_string(missing) + " of " +
                                std::to_string(grid.size()) + " grid points missing"};
  }
  return result;
}

// ---------------------------------------------------------- ExperimentRunner

SweepResult ExperimentRunner::run(const std::vector<ScenarioSpec>& grid) const {
  const ShardOptions shard = plan_.shard;
  if (shard.count == 0) {
    throw std::invalid_argument{"ExecutionPlan: shard.count must be >= 1 (got 0)"};
  }
  if (shard.index >= shard.count) {
    throw std::invalid_argument{"ExecutionPlan: shard.index " + std::to_string(shard.index) +
                                " not in [0, " + std::to_string(shard.count) + ")"};
  }

  SweepResult result;
  result.shard = shard;
  result.grid_size = grid.size();
  const std::size_t owned = shard.owned_of(grid.size());
  if (owned == 0) return result;

  // The shard's j-th point is grid point shard.index + j * shard.count.
  // Each owned point's canonical identity is rendered once: the first point
  // of an identity in grid order leads it, and only leaders run — the
  // other points of that identity copy the leader's report after the pool
  // drains.  Which point leads depends on the grid alone, never on the
  // thread count.
  const auto grid_index = [&shard](std::size_t j) { return shard.index + j * shard.count; };
  std::vector<std::size_t> leader_of(owned);
  std::vector<std::size_t> leaders;
  {
    std::unordered_map<std::string, std::size_t> first;
    for (std::size_t j = 0; j < owned; ++j) {
      const auto [it, fresh] = first.try_emplace(grid[grid_index(j)].identity_json(), j);
      leader_of[j] = it->second;
      if (fresh) leaders.push_back(j);
    }
  }

  // Workers take leaders from one counter.  Completion order is
  // nondeterministic, so each result lands in its own slot and the slots
  // stay in grid order — the artefact bytes can't tell how many threads ran.
  std::vector<PointResult> slots(owned);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::size_t completed = 0;
  std::mutex mutex;  // guards `completed`, `error` and the progress callback
  std::exception_ptr error;

  const auto work = [&] {
    for (;;) {
      // A failed point aborts the whole sweep: don't burn the remaining
      // grid on the surviving workers just to rethrow afterwards.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= leaders.size()) return;
      const std::size_t j = leaders[k];
      PointResult& slot = slots[j];
      slot.index = grid_index(j);
      slot.spec = grid[slot.index];
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
            // Storing each point as it finishes is what lets a rerun of a
            // killed shard recompute only the point that was in flight.
            try {
              plan_.cache->store(slot.spec, slot.report);
            } catch (const std::runtime_error&) {
            }
          }
        }
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock{mutex};
        if (!error) error = std::current_exception();
        return;
      }
      slot.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - point_began)
                         .count();
      if (plan_.progress) {
        const std::lock_guard<std::mutex> lock{mutex};
        plan_.progress(++completed, owned, slot.spec);
      }
    }
  };

  unsigned threads = plan_.threads != 0 ? plan_.threads
                                        : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, leaders.size()));

  if (threads <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
    for (auto& t : pool) t.join();
  }

  if (error) std::rethrow_exception(error);
  // Every other point of an identity is served from its leader's report,
  // in grid order: no simulation, no cache round-trip, no sidecar.
  for (std::size_t j = 0; j < owned; ++j) {
    if (leader_of[j] == j) continue;
    PointResult& slot = slots[j];
    slot.index = grid_index(j);
    slot.spec = grid[slot.index];
    slot.report = slots[leader_of[j]].report;
    slot.cached = true;
    if (plan_.progress) plan_.progress(++completed, owned, slot.spec);
  }
  result.points = std::move(slots);
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
