// sweepctl — sweep orchestration from the command line.
//
// A grid preset names a deterministic grid (exp/presets.hpp), so separate
// processes — or separate hosts sharing nothing but these files — can each
// run a static shard of it (point i belongs to shard i % N) and a final
// merge reassembles the exact single-process artefact:
//
//   host A$ sweepctl run --preset small --shard 0/2 --cache cache/ --out shard0.json
//   host B$ sweepctl run --preset small --shard 1/2 --cache cache/ --out shard1.json
//        $ sweepctl merge --preset small --out sweep.json shard0.json shard1.json
//        $ sweepctl run --preset small --out whole.json
//        $ cmp sweep.json whole.json                               # byte-identical
//
// Every finished point is stored in the --cache directory at once, so a
// shard whose process died is rerun with the same command: it recomputes
// only the point that was in flight, and the merge is still byte-identical
// (CI-gated).  `run` prints how many points it simulated: points that
// share a canonical identity (exp/runner.hpp) run once, so the 960-point
// policy-cross preset simulates 80.  `status` reports grid size, cache
// presence, shard-file coverage and straggler shards; `presets` lists the
// grids.  `gc` evicts cache entries older than --keep-days.  `diff A.json
// B.json` matches two artefacts' points by label and prints every metric
// that drifted, old -> new; it exits 1 on any drift, so a refactor shows
// zero drift with it and a result-changing change lists what moved.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/cache.hpp"
#include "exp/presets.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "stats/json.hpp"
#include "util/file_io.hpp"
#include "util/parse.hpp"

namespace {

using namespace xdrs;

int usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "sweepctl: %s\n\n", error);
  std::fprintf(stderr,
               "usage: sweepctl <command> [options]\n"
               "\n"
               "commands:\n"
               "  presets                       list grid presets and their sizes\n"
               "  run    --preset NAME [--shard I/N] [--cache DIR] [--threads N]\n"
               "         --out FILE [--csv FILE] [--telemetry DIR] [--progress]\n"
               "                                run the grid or one static shard of it.\n"
               "                                whole grid: writes the sweep artefact JSON;\n"
               "                                shard: writes a shard file for merge.\n"
               "                                rerunning a dead shard with the same --cache\n"
               "                                recomputes only its unfinished points.\n"
               "                                --telemetry drops a per-point sidecar into DIR\n"
               "                                (artefacts stay byte-identical)\n"
               "  merge  --preset NAME --out FILE SHARD.json...\n"
               "                                reassemble shard files into the artefact,\n"
               "                                byte-identical to a single-process run\n"
               "  status --preset NAME [--cache DIR] [--telemetry DIR --stages] [SHARD.json...]\n"
               "                                show grid size, cache and shard coverage;\n"
               "                                with shard files, report straggler shards,\n"
               "                                cache-hit vs compute wall split, the\n"
               "                                slowest points and — for multi-rack\n"
               "                                points — the per-hop split (intra/cross-\n"
               "                                rack bytes, core utilisation); with\n"
               "                                --telemetry + --stages, the per-scenario\n"
               "                                stage-cost breakdown\n"
               "  trace  --scenario NAME [--policies STACK] [--ports N] [--load X]\n"
               "         [--seed N] [--racks N [--oversub X] [--locality X]] --out FILE\n"
               "                                run one scenario with event tracing and\n"
               "                                stage profiling on; write a Chrome\n"
               "                                trace-event JSON (load in ui.perfetto.dev).\n"
               "                                multi-rack runs add one counter track per\n"
               "                                tier (per-ToR VOQ depth, core queue depth)\n"
               "  gc     --cache DIR --keep-days N\n"
               "                                evict cache entries older than N days\n"
               "  diff   A.json B.json          match two artefacts' points by label and\n"
               "                                print each drifted metric, old -> new;\n"
               "                                exit 1 on any drift\n"
               "\n"
               "a flag or file argument the command does not read is an error.\n");
  return 2;
}

struct Options {
  std::string command;
  std::string preset;
  std::string cache_dir;
  std::string out_path;
  std::string csv_path;
  std::string telemetry_dir;
  std::string scenario;  // trace
  std::string policies;  // trace; empty = the scenario's default stack
  exp::ShardOptions shard{};
  unsigned threads{0};
  std::uint32_t ports{8};    // trace
  double load{0.5};          // trace
  std::uint64_t seed{7};     // trace
  std::uint32_t racks{1};    // trace; >1 runs the scenario on a fat-tree
  double oversub{1.0};       // trace; fat-tree core oversubscription
  double locality{0.9};      // trace; fat-tree rack-locality fraction
  double keep_days{-1.0};  // gc; negative = not given
  bool progress{false};
  bool stages{false};  // status: per-stage telemetry breakdown
  std::vector<std::string> inputs;  // positional shard files
};

bool parse_shard(const std::string& val, exp::ShardOptions& shard) {
  const auto slash = val.find('/');
  if (slash == std::string::npos) return false;
  // Whole-token, in-range parses only (util::parse_number): "0x1/2",
  // "1/2x" and "1/-2" must be rejected, not silently truncated or wrapped
  // to the wrong shard.
  if (!util::parse_number(std::string_view{val}.substr(0, slash), shard.index)) return false;
  if (!util::parse_number(std::string_view{val}.substr(slash + 1), shard.count)) return false;
  return shard.count >= 1 && shard.index < shard.count;
}

/// What each command reads: its flags, and whether it takes positional
/// file arguments.  Anything else is rejected, so a flag or a file a
/// command would ignore (a removed flag, another command's, a stray path)
/// fails loudly.
struct CommandArgs {
  std::vector<std::string_view> flags;
  bool files{false};
};
const std::map<std::string_view, CommandArgs> kCommandArgs{
    {"presets", {}},
    {"run",
     {{"--preset", "--shard", "--cache", "--threads", "--out", "--csv", "--telemetry",
       "--progress"}}},
    {"merge", {{"--preset", "--out", "--csv"}, true}},
    {"status", {{"--preset", "--cache", "--telemetry", "--stages"}, true}},
    {"trace",
     {{"--scenario", "--policies", "--ports", "--load", "--seed", "--racks", "--oversub",
       "--locality", "--out"}}},
    {"gc", {{"--cache", "--keep-days"}}},
    {"diff", {{}, true}},
};

/// Fills `opt` from the command line.  On a malformed command line prints
/// what is wrong with which flag and returns false (the caller then prints
/// the usage text).
bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.command = argv[1];
  const auto command = kCommandArgs.find(opt.command);
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto eq = arg.find('=');
    // Accept both "--flag=value" and "--flag value".
    const std::string key = arg.substr(0, eq);
    std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (command != kCommandArgs.end() && key.starts_with("--") &&
        std::find(command->second.flags.begin(), command->second.flags.end(), key) ==
            command->second.flags.end()) {
      std::fprintf(stderr, "sweepctl: %s: unknown flag '%s'\n", opt.command.c_str(),
                   key.c_str());
      return false;
    }
    const auto value = [&]() -> bool {
      if (eq != std::string::npos) return true;
      if (a + 1 >= argc) {
        std::fprintf(stderr, "sweepctl: %s: missing value\n", key.c_str());
        return false;
      }
      val = argv[++a];
      return true;
    };
    // Numeric values are whole-token, in-range parses (util::parse_number):
    // "--threads=2x" must not silently run with 2 threads.
    const auto check = [&](bool ok) {
      if (!ok) std::fprintf(stderr, "sweepctl: %s: bad value '%s'\n", key.c_str(), val.c_str());
      return ok;
    };
    if (key == "--preset") {
      if (!value()) return false;
      opt.preset = val;
    } else if (key == "--shard") {
      if (!value() || !check(parse_shard(val, opt.shard))) return false;
    } else if (key == "--cache") {
      if (!value()) return false;
      opt.cache_dir = val;
    } else if (key == "--out") {
      if (!value()) return false;
      opt.out_path = val;
    } else if (key == "--csv") {
      if (!value()) return false;
      opt.csv_path = val;
    } else if (key == "--threads") {
      if (!value() || !check(util::parse_number(val, opt.threads))) return false;
    } else if (key == "--keep-days") {
      if (!value() || !check(util::parse_number(val, opt.keep_days) && opt.keep_days >= 0.0)) {
        return false;
      }
    } else if (key == "--telemetry") {
      if (!value()) return false;
      opt.telemetry_dir = val;
    } else if (key == "--scenario") {
      if (!value()) return false;
      opt.scenario = val;
    } else if (key == "--policies") {
      if (!value()) return false;
      opt.policies = val;
    } else if (key == "--ports") {
      if (!value() || !check(util::parse_number(val, opt.ports) && opt.ports >= 2)) return false;
    } else if (key == "--load") {
      if (!value() || !check(util::parse_number(val, opt.load) && opt.load > 0.0)) return false;
    } else if (key == "--seed") {
      if (!value() || !check(util::parse_number(val, opt.seed))) return false;
    } else if (key == "--racks") {
      if (!value() || !check(util::parse_number(val, opt.racks) && opt.racks >= 1)) return false;
    } else if (key == "--oversub") {
      if (!value() || !check(util::parse_number(val, opt.oversub) && opt.oversub > 0.0)) {
        return false;
      }
    } else if (key == "--locality") {
      if (!value() || !check(util::parse_number(val, opt.locality) && opt.locality >= 0.0 &&
                             opt.locality <= 1.0)) {
        return false;
      }
    } else if (key == "--stages") {
      opt.stages = true;
    } else if (key == "--progress") {
      opt.progress = true;
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      std::fprintf(stderr, "sweepctl: unknown flag '%s'\n", key.c_str());
      return false;
    } else if (command != kCommandArgs.end() && !command->second.files) {
      std::fprintf(stderr, "sweepctl: %s: unexpected argument '%s'\n", opt.command.c_str(),
                   arg.c_str());
      return false;
    } else {
      opt.inputs.push_back(arg);
    }
  }
  return true;
}

void write_file(const std::string& path, const std::string& content) {
  try {
    util::write_file(path, content);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "sweepctl: %s\n", e.what());
    std::exit(1);
  }
}

std::string read_file(const std::string& path) {
  std::optional<std::string> data = util::read_file(path);
  if (!data) {
    std::fprintf(stderr, "sweepctl: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  return *std::move(data);
}

// ----------------------------------------------------------------- commands

int cmd_presets() {
  for (const std::string& name : exp::known_presets()) {
    std::printf("%-14s %4zu points\n", name.c_str(), exp::make_preset(name).size());
  }
  return 0;
}

int cmd_run(const Options& opt) {
  if (opt.out_path.empty()) return usage("run: --out is required");
  // A shard of a split grid emits a shard file for merge; only a whole-grid
  // run writes the artefact.
  const bool shard_file = opt.shard.count > 1;
  if (shard_file && !opt.csv_path.empty()) {
    return usage("run: --csv applies to whole-grid runs only (merge emits the artefact)");
  }
  const std::vector<exp::ScenarioSpec> grid = exp::make_preset(opt.preset);

  std::optional<exp::ResultCache> cache;
  if (!opt.cache_dir.empty()) cache.emplace(opt.cache_dir);

  exp::ExecutionPlan plan;
  plan.threads = opt.threads;
  plan.shard = opt.shard;
  plan.cache = cache ? &*cache : nullptr;
  plan.telemetry_dir = opt.telemetry_dir;
  if (opt.progress) {
    plan.progress = [](std::size_t done, std::size_t total, const exp::ScenarioSpec& s) {
      std::fprintf(stderr, "[%4zu/%zu] %s\n", done, total, s.key().c_str());
    };
  }

  const exp::SweepResult result = exp::ExperimentRunner{plan}.run(grid);

  write_file(opt.out_path, shard_file ? result.to_shard_json() : result.to_json());
  if (!opt.csv_path.empty()) write_file(opt.csv_path, result.to_csv());

  // Points served without a simulation here — cache hits and points that
  // share an earlier point's identity — read as cached.
  const auto simulated = static_cast<std::size_t>(
      std::count_if(result.points.begin(), result.points.end(),
                    [](const exp::PointResult& p) { return !p.cached; }));
  std::printf("preset %s: %zu points, shard %zu/%zu ran %zu, simulated %zu\n",
              opt.preset.c_str(), grid.size(), opt.shard.index, opt.shard.count,
              result.points.size(), simulated);
  if (cache) {
    const exp::CacheStats cs = cache->stats();
    std::printf("cache %s: %llu hits, %llu misses, %llu stale, %llu stored (%llu simulated)\n",
                cache->dir().c_str(), static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.stale),
                static_cast<unsigned long long>(cs.stores),
                static_cast<unsigned long long>(cs.misses + cs.stale));
    if (cs.store_failures != 0) {
      std::fprintf(stderr, "sweepctl: warning: %llu cache writes failed (results kept in-run)\n",
                   static_cast<unsigned long long>(cs.store_failures));
    }
  }
  return 0;
}

int cmd_merge(const Options& opt) {
  if (opt.out_path.empty()) return usage("merge: --out is required");
  if (opt.inputs.empty()) return usage("merge: at least one shard file is required");
  const std::vector<exp::ScenarioSpec> grid = exp::make_preset(opt.preset);

  std::vector<std::string> payloads;
  payloads.reserve(opt.inputs.size());
  for (const std::string& path : opt.inputs) payloads.push_back(read_file(path));

  const exp::SweepResult result = exp::SweepResult::merge_shards(grid, payloads);
  write_file(opt.out_path, result.to_json());
  if (!opt.csv_path.empty()) write_file(opt.csv_path, result.to_csv());
  std::printf("merged %zu shard files into %s (%zu points)\n", opt.inputs.size(),
              opt.out_path.c_str(), result.points.size());
  return 0;
}

/// Per-scenario stage-cost breakdown, aggregated over every telemetry
/// sidecar in `dir` (the `--telemetry` output of `sweepctl run`): for each
/// profiled stage, call count, total wall and share of the scenario's
/// profiled time.  Unreadable files are reported and skipped — status is a
/// diagnostic, it must not die on one truncated sidecar.
void print_stage_breakdown(const std::string& dir) {
  struct StageCost {
    std::uint64_t count{0};
    std::int64_t total_ns{0};
  };
  std::map<std::string, std::map<std::string, StageCost>> by_scenario;
  std::size_t sidecars = 0;

  std::error_code ec;
  std::filesystem::directory_iterator it{dir, ec};
  if (ec) {
    std::printf("telemetry %s: unreadable (%s)\n", dir.c_str(), ec.message().c_str());
    return;
  }
  constexpr std::string_view kSuffix = ".telemetry.json";
  for (const auto& de : it) {
    const std::string path = de.path().string();
    if (path.size() < kSuffix.size() ||
        std::string_view{path}.substr(path.size() - kSuffix.size()) != kSuffix) {
      continue;
    }
    try {
      const stats::JsonValue doc = stats::parse_json(read_file(path));
      const std::string& scenario = doc.at("scenario").as_str();
      for (const stats::JsonValue& stage : doc.at("stages").items()) {
        StageCost& cost = by_scenario[scenario][stage.at("name").as_str()];
        cost.count += stage.at("count").as_u64();
        cost.total_ns += stage.at("total_ns").as_i64();
      }
      ++sidecars;
    } catch (const std::invalid_argument& e) {
      std::printf("telemetry %s: skipped (%s)\n", path.c_str(), e.what());
    }
  }
  std::printf("telemetry %s: %zu sidecars\n", dir.c_str(), sidecars);

  for (const auto& [scenario, stages] : by_scenario) {
    std::int64_t scenario_total = 0;
    for (const auto& [name, cost] : stages) scenario_total += cost.total_ns;
    std::printf("stage costs %s (profiled wall %.2f ms):\n", scenario.c_str(),
                static_cast<double>(scenario_total) / 1e6);
    // Costliest stage first: the line a reader acts on is the top one.
    std::vector<std::pair<std::string, StageCost>> ordered{stages.begin(), stages.end()};
    std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
      return a.second.total_ns > b.second.total_ns;
    });
    for (const auto& [name, cost] : ordered) {
      const double mean_us = cost.count == 0
                                 ? 0.0
                                 : static_cast<double>(cost.total_ns) /
                                       static_cast<double>(cost.count) / 1e3;
      const double share = scenario_total == 0 ? 0.0
                                               : 100.0 * static_cast<double>(cost.total_ns) /
                                                     static_cast<double>(scenario_total);
      std::printf("  %-20s %8llu calls  total %9.2f ms  mean %8.2f us  (%5.1f%%)\n",
                  name.c_str(), static_cast<unsigned long long>(cost.count),
                  static_cast<double>(cost.total_ns) / 1e6, mean_us, share);
    }
  }
}

int cmd_status(const Options& opt) {
  const std::vector<exp::ScenarioSpec> grid = exp::make_preset(opt.preset);
  std::printf("preset %s: %zu points\n", opt.preset.c_str(), grid.size());

  if (!opt.cache_dir.empty()) {
    exp::ResultCache cache{opt.cache_dir};
    for (const exp::ScenarioSpec& spec : grid) (void)cache.lookup(spec);
    const exp::CacheStats cs = cache.stats();
    std::printf("cache %s: %llu cached, %llu missing, %llu stale\n", cache.dir().c_str(),
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.stale));
  }

  if (opt.stages) {
    if (opt.telemetry_dir.empty()) {
      std::fprintf(stderr, "sweepctl: status --stages needs --telemetry DIR\n");
      return 2;
    }
    print_stage_breakdown(opt.telemetry_dir);
  }

  if (!opt.inputs.empty()) {
    std::vector<bool> covered(grid.size(), false);
    // Straggler accounting from the recorded per-point wall times: which
    // shard carried the most wall-clock, and which points dominate it.
    struct ShardWall {
      std::string path;
      std::int64_t total_us{0};
    };
    std::vector<ShardWall> shard_walls;
    std::vector<std::pair<std::int64_t, std::string>> point_walls;  // (us, key)
    // Cache-hit vs fresh-compute wall split, over all shard files: cached
    // points' wall is the cache round-trip, not simulation, so straggler
    // analysis should not blame a warm shard for being "fast".
    std::size_t cached_points = 0;
    std::int64_t cached_wall_us = 0;
    std::int64_t compute_wall_us = 0;
    // Per-scenario deadline accounting, summed over each point counted once
    // (the scenario is the first '/'-segment of the point key).
    struct DeadlineTally {
      std::uint64_t met{0};
      std::uint64_t missed{0};
    };
    std::map<std::string, DeadlineTally> deadline_tallies;
    // Per-hop split over multi-rack points (schema-4 reports): delivered
    // bytes by hop class and the mean core-link utilisation.
    struct HopTally {
      std::int64_t intra_bytes{0};
      std::int64_t cross_bytes{0};
      double util_sum{0.0};
      std::size_t points{0};
    };
    std::map<std::string, HopTally> hop_tallies;
    for (const std::string& path : opt.inputs) {
      std::size_t points = 0;
      std::size_t matching = 0;
      std::size_t mismatched = 0;
      std::int64_t wall_us = 0;
      // Staged per file and committed only after the whole file parses, and
      // only for points merge would accept — a truncated or stale shard
      // must not smuggle bogus keys into the straggler report.
      std::vector<std::pair<std::int64_t, std::string>> file_walls;
      try {
        const stats::JsonValue doc = stats::parse_json(read_file(path));
        for (const stats::JsonValue& entry : doc.at("points").items()) {
          ++points;
          const std::uint64_t index = entry.at("index").as_u64();
          // Count a point as covered only if merge would accept it: the
          // stored spec hash must match this grid's spec at that index,
          // otherwise status would claim coverage merge then rejects
          // (stale shard files from an edited preset).
          if (index >= grid.size() ||
              entry.at("spec_hash").as_str() != exp::spec_hash_hex(grid[index])) {
            ++mismatched;
            continue;
          }
          const std::int64_t point_wall_us = entry.at("wall_us").as_i64();
          wall_us += point_wall_us;
          if (entry.at("cached").as_bool()) {
            ++cached_points;
            cached_wall_us += point_wall_us;
          } else {
            compute_wall_us += point_wall_us;
            // Only fresh compute competes for "slowest point" — a cache
            // round-trip's microseconds say nothing about the simulation.
            file_walls.emplace_back(point_wall_us, entry.at("key").as_str());
          }
          if (!covered[index]) {
            covered[index] = true;
            ++matching;
            // Deadline metrics, when this shard's schema carries them
            // (tolerant find: older shard files simply print no SLO line).
            if (const stats::JsonValue* report = entry.find("report")) {
              const stats::JsonValue* met = report->find("deadline_flows_met");
              const stats::JsonValue* missed = report->find("deadline_flows_missed");
              if (met != nullptr && missed != nullptr) {
                DeadlineTally& t = deadline_tallies[grid[index].scenario];
                t.met += met->as_u64();
                t.missed += missed->as_u64();
              }
              // Per-hop metrics, when present (tolerant find: pre-topology
              // shard files simply print no per-hop line) and meaningful
              // (multi-rack points only — a single switch is all intra).
              if (grid[index].topology.multi_rack()) {
                const stats::JsonValue* intra = report->find("intra_rack_bytes");
                const stats::JsonValue* cross = report->find("cross_rack_bytes");
                const stats::JsonValue* util = report->find("core_utilization");
                if (intra != nullptr && cross != nullptr && util != nullptr) {
                  HopTally& h = hop_tallies[grid[index].scenario];
                  h.intra_bytes += intra->as_i64();
                  h.cross_bytes += cross->as_i64();
                  h.util_sum += util->as_f64();
                  ++h.points;
                }
              }
            }
          }
        }
        point_walls.insert(point_walls.end(), file_walls.begin(), file_walls.end());
        if (mismatched != 0) {
          std::printf("shard %s: %zu points (%zu new, %zu stale — merge would reject), "
                      "wall %.1f ms\n",
                      path.c_str(), points, matching, mismatched,
                      static_cast<double>(wall_us) / 1e3);
        } else {
          std::printf("shard %s: %zu points (%zu new), wall %.1f ms\n", path.c_str(), points,
                      matching, static_cast<double>(wall_us) / 1e3);
        }
        shard_walls.push_back({path, wall_us});
      } catch (const std::invalid_argument& e) {
        std::printf("shard %s: unreadable (%s)\n", path.c_str(), e.what());
      }
    }
    std::size_t missing = 0;
    for (const bool c : covered) missing += c ? 0 : 1;
    std::printf("coverage: %zu/%zu points, %zu missing\n", grid.size() - missing, grid.size(),
                missing);
    if (cached_points != 0) {
      std::printf("cached: %zu points served without a simulation, from the cache or an "
                  "earlier point of the same identity (%.1f ms round-trips; "
                  "compute wall %.1f ms)\n",
                  cached_points, static_cast<double>(cached_wall_us) / 1e3,
                  static_cast<double>(compute_wall_us) / 1e3);
    }

    // Per-hop summary for the topology grids: how delivered bytes split
    // between rack-local and core-crossing hops, and how loaded the core
    // links ran (mean over the scenario's multi-rack points).
    for (const auto& [scenario, h] : hop_tallies) {
      const std::int64_t total = h.intra_bytes + h.cross_bytes;
      const double cross_share =
          total == 0 ? 0.0
                     : 100.0 * static_cast<double>(h.cross_bytes) / static_cast<double>(total);
      std::printf("per-hop %s: intra-rack %.1f MB, cross-rack %.1f MB (%.1f%% crossed), "
                  "core utilization %.3f (%zu points)\n",
                  scenario.c_str(), static_cast<double>(h.intra_bytes) / 1e6,
                  static_cast<double>(h.cross_bytes) / 1e6, cross_share,
                  h.util_sum / static_cast<double>(h.points), h.points);
    }

    // SLO summary: deadline-miss ratio per scenario, for shards whose
    // reports track deadlines and actually saw deadline-bearing flows.
    for (const auto& [scenario, tally] : deadline_tallies) {
      const std::uint64_t total = tally.met + tally.missed;
      if (total == 0) continue;
      std::printf("deadline %s: miss ratio %.4f (%llu of %llu flows missed)\n", scenario.c_str(),
                  static_cast<double>(tally.missed) / static_cast<double>(total),
                  static_cast<unsigned long long>(tally.missed),
                  static_cast<unsigned long long>(total));
    }

    // The straggler report the merge step wants before it blocks on a slow
    // host: the wall-time spread across shards and the slowest points.
    if (shard_walls.size() > 1) {
      const auto [min_it, max_it] =
          std::minmax_element(shard_walls.begin(), shard_walls.end(),
                              [](const ShardWall& a, const ShardWall& b) {
                                return a.total_us < b.total_us;
                              });
      std::printf("stragglers: slowest shard %s (%.1f ms) vs fastest %s (%.1f ms)",
                  max_it->path.c_str(), static_cast<double>(max_it->total_us) / 1e3,
                  min_it->path.c_str(), static_cast<double>(min_it->total_us) / 1e3);
      if (min_it->total_us > 0) {
        std::printf(", %.2fx imbalance",
                    static_cast<double>(max_it->total_us) /
                        static_cast<double>(min_it->total_us));
      }
      std::printf("\n");
    }
    if (!point_walls.empty()) {
      std::sort(point_walls.begin(), point_walls.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      const std::size_t top = std::min<std::size_t>(point_walls.size(), 5);
      std::printf("slowest points:\n");
      for (std::size_t i = 0; i < top; ++i) {
        std::printf("  %10.1f ms  %s\n", static_cast<double>(point_walls[i].first) / 1e3,
                    point_walls[i].second.c_str());
      }
    }
  }
  return 0;
}

int cmd_trace(const Options& opt) {
  if (opt.scenario.empty()) return usage("trace: --scenario is required");
  if (opt.out_path.empty()) return usage("trace: --out is required");

  exp::ScenarioSpec spec = exp::make_scenario(opt.scenario, opt.ports, opt.load, opt.seed);
  if (!opt.policies.empty()) spec.with_policies(core::PolicyStack::parse(opt.policies));
  if (opt.racks > 1) {
    spec.with_racks(opt.racks).with_oversubscription(opt.oversub).with_locality(opt.locality);
  }

  obs::TelemetryConfig tc;
  tc.span_log_capacity = 1 << 16;  // keep individual spans for the host track

  // The sim-event track comes from ToR 0 (every rack runs the same policy
  // stack, so one switch is representative); a multi-rack tree adds one
  // counter track per ToR plus the core.  Bounded tracing: drop-oldest
  // keeps the trace's tail contiguous, so start/done pairs still fold into
  // duration slices after overflow.
  std::unique_ptr<topo::FatTree> ft = exp::materialize_fat_tree(spec);
  sim::TraceRecorder& trace = ft->rack(0).trace();
  trace.set_capacity(1 << 20);
  trace.enable();
  ft->enable_telemetry(tc);
  (void)ft->run(spec.duration, spec.warmup);

  const obs::Registry& reg = ft->telemetry()->registry();
  write_file(opt.out_path, obs::chrome_trace_json(trace, reg, ft->tier_series()));
  std::printf("trace %s: %zu events kept (%llu dropped), %zu spans kept (%llu dropped), "
              "%zu tier tracks -> %s\n",
              spec.key().c_str(), trace.events().size(),
              static_cast<unsigned long long>(trace.dropped()), reg.spans().size(),
              static_cast<unsigned long long>(reg.spans_dropped()), ft->tier_series().size(),
              opt.out_path.c_str());
  std::printf("load %s in ui.perfetto.dev or chrome://tracing\n", opt.out_path.c_str());
  return 0;
}

int cmd_gc(const Options& opt) {
  if (opt.cache_dir.empty()) return usage("gc: --cache is required");
  if (opt.keep_days < 0.0) return usage("gc: --keep-days is required");
  exp::ResultCache cache{opt.cache_dir};
  const exp::GcStats gcs = cache.gc(opt.keep_days);
  std::printf("cache %s: removed %llu entries older than %g days, kept %llu\n",
              cache.dir().c_str(), static_cast<unsigned long long>(gcs.removed), opt.keep_days,
              static_cast<unsigned long long>(gcs.kept));
  return 0;
}

/// `diff A.json B.json`: every point of either artefact, matched by label,
/// with each metric whose JSON text differs printed as old -> new.  The
/// artefact's "merged" aggregate is compared as one more point.
int cmd_diff(const Options& opt) {
  if (opt.inputs.size() != 2) return usage("diff: exactly two artefact files are required");
  using Points = std::vector<std::pair<std::string, const stats::JsonValue*>>;
  const auto points_of = [](const stats::JsonValue& doc) {
    Points out;
    for (const stats::JsonValue& p : doc.at("points").items()) {
      out.emplace_back(p.at("label").as_str(), &p);
    }
    if (const stats::JsonValue* merged = doc.find("merged")) out.emplace_back("(merged)", merged);
    return out;
  };
  const stats::JsonValue a_doc = stats::parse_json(read_file(opt.inputs[0]));
  const stats::JsonValue b_doc = stats::parse_json(read_file(opt.inputs[1]));
  const Points a = points_of(a_doc);
  const Points b = points_of(b_doc);
  const auto text = [](const stats::JsonValue* v) { return v ? v->dump() : "(absent)"; };
  const auto lookup = [](const Points& pts, const std::string& label) -> const stats::JsonValue* {
    for (const auto& [l, p] : pts) {
      if (l == label) return p;
    }
    return nullptr;
  };

  std::size_t drifted_points = 0, drifted_metrics = 0, only_a = 0, only_b = 0;
  for (const auto& [label, pa] : a) {
    const stats::JsonValue* pb = lookup(b, label);
    if (pb == nullptr) {
      std::printf("%s: only in %s\n", label.c_str(), opt.inputs[0].c_str());
      ++only_a;
      continue;
    }
    std::vector<std::string> lines;
    for (const auto& [key, va] : pa->members()) {
      const stats::JsonValue* vb = pb->find(key);
      if (vb == nullptr || va.dump() != vb->dump()) {
        lines.push_back(key + ": " + va.dump() + " -> " + text(vb));
      }
    }
    for (const auto& [key, vb] : pb->members()) {
      if (pa->find(key) == nullptr) lines.push_back(key + ": (absent) -> " + vb.dump());
    }
    if (lines.empty()) continue;
    ++drifted_points;
    drifted_metrics += lines.size();
    std::printf("%s\n", label.c_str());
    for (const std::string& line : lines) std::printf("  %s\n", line.c_str());
  }
  for (const auto& [label, pb] : b) {
    if (lookup(a, label) == nullptr) {
      std::printf("%s: only in %s\n", label.c_str(), opt.inputs[1].c_str());
      ++only_b;
    }
  }
  std::printf("diff: %zu of %zu points drifted (%zu metrics), %zu only in %s, %zu only in %s\n",
              drifted_points, a.size() - only_a, drifted_metrics, only_a, opt.inputs[0].c_str(),
              only_b, opt.inputs[1].c_str());
  return drifted_points + only_a + only_b == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  try {
    if (opt.command == "presets") return cmd_presets();
    if (opt.command == "gc") return cmd_gc(opt);
    if (opt.command == "trace") return cmd_trace(opt);
    if (opt.command == "diff") return cmd_diff(opt);
    if (opt.preset.empty()) return usage("--preset is required");
    if (opt.command == "run") return cmd_run(opt);
    if (opt.command == "merge") return cmd_merge(opt);
    if (opt.command == "status") return cmd_status(opt);
    return usage(("unknown command '" + opt.command + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepctl: %s\n", e.what());
    return 1;
  }
}
