// Profiling target: one hot scenario, repeated long enough to sample.
//
// This bench pins one scenario and re-runs it with fresh seeds on a single
// thread until the requested wall-clock budget is spent, so samples
// overwhelmingly land in the simulator rather than setup/teardown.  The
// matcher is not where the time goes: on the benchmark's p128_uniform
// workload `matcher.share` is under 1%, and the event queue, the
// classifier and the VOQs dominate.  For the per-layer split, measured
// from outside the simulator, run the repository benchmark traced:
//
//   $ python3 perfbench/run.py --workload p128_uniform --trace 1
//
// For a function-level profile, build with gprof instrumentation (gmon.out
// lands in the working directory):
//
//   $ cmake -B build-gprof -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-pg
//   $ cmake --build build-gprof -j --target bench_profile_hotloop
//   $ ./build-gprof/bench_profile_hotloop --ports=128 --load=0.6 --seconds=10
//   $ gprof -b -p build-gprof/bench_profile_hotloop gmon.out | head -30
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hpp"
#include "exp/scenario.hpp"
#include "util/parse.hpp"

namespace {

using namespace xdrs;
using namespace xdrs::sim::literals;

struct Options {
  std::string scenario{"uniform"};
  std::string matcher{"islip:4"};  // RGA inner loop; "maxweight" = Hungarian
  std::uint32_t ports{32};
  double load{0.9};
  double seconds{10.0};
};

// Whole-token, in-range parses (util::parse_number): "--ports=32x" or
// "--load=0.9oops" are errors, not silently truncated numbers, and so is a
// ports value past uint32 range.
bool parse(int argc, char** argv, Options& opt) try {
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--scenario") {
      opt.scenario = val;
    } else if (key == "--matcher") {
      opt.matcher = val;
    } else if (key == "--ports" || key == "--load" || key == "--seconds") {
      const bool ok = key == "--ports" ? util::parse_number(val, opt.ports)
                      : key == "--load" ? util::parse_number(val, opt.load)
                                        : util::parse_number(val, opt.seconds);
      if (!ok) {
        std::fprintf(stderr, "bench_profile_hotloop: bad %s value '%s'\n", key.c_str(),
                     val.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_profile_hotloop [--scenario=NAME] [--matcher=SPEC] [--ports=N] "
                   "[--load=F] [--seconds=S]\n");
      return false;
    }
  }
  return true;
} catch (const std::exception&) {
  std::fprintf(stderr, "bench_profile_hotloop: bad flag value\n");
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return 2;

  exp::ScenarioSpec spec;
  try {
    spec = exp::make_scenario(opt.scenario, opt.ports, opt.load, /*seed=*/7)
               .with_matcher(opt.matcher)
               .with_window(2_ms, 200_us);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_profile_hotloop: %s\n", e.what());
    return 2;
  }

  std::printf("hot loop: %s for %.1fs wall clock (single thread, fresh seed per iteration)\n",
              spec.key().c_str(), opt.seconds);

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  std::uint64_t iterations = 0;
  std::uint64_t decisions = 0;
  std::int64_t delivered = 0;
  while (elapsed() < opt.seconds) {
    spec.with_seed(7 + iterations);  // decorrelate iterations, keep the workload shape
    const core::RunReport report = exp::run_scenario(spec);
    decisions += report.scheduler_decisions;
    delivered += report.delivered_bytes;
    ++iterations;
  }

  const double wall = elapsed();
  std::printf("%llu iterations in %.2fs — %.2f sims/s, %.0f scheduler decisions/s "
              "(%.1f MB delivered)\n",
              static_cast<unsigned long long>(iterations), wall,
              static_cast<double>(iterations) / wall, static_cast<double>(decisions) / wall,
              static_cast<double>(delivered) / 1e6);
  bench::print_note(
      "Build with -DCMAKE_CXX_FLAGS=-pg and read gmon.out with `gprof -b -p` to attribute\n"
      "samples; the event queue, classifier and VOQs dominate and the matcher barely registers.");
  return 0;
}
