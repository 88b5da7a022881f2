// xdrs_perf: measures one workload in this process and prints one JSON
// line.  perfbench/run.py starts one such process per repetition, so peak
// RSS and the allocation counter see a single workload.
//
//   xdrs_perf --workload p128_uniform --seed 7 --root . --scratch DIR
//             [--inputs FILE] [--trace] [--expected FILE] [--spans FILE]
//   xdrs_perf --workload p128_uniform --root . --scratch DIR --write-expected FILE
//
// Output: {"workload":..,"seed":..,"traced":0|1,"attempted":..,"failed":..,
//          "errors":[..],"digest":"<hash of every point's report digest>",
//          "metrics":{"name":value,...}}
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>

#include "measure.hpp"
#include "util/hash.hpp"

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "xdrs_perf: %s\nusage: xdrs_perf --workload NAME --root DIR --scratch DIR "
               "[--seed N] [--inputs FILE] [--trace] [--expected FILE] [--spans FILE] "
               "[--write-expected FILE]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool traced = false;
  bool have_workload = false;
  std::string expected_path, spans_path, write_expected;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(std::string{arg} + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      const auto w = perfbench::parse_workload(name);
      if (!w) usage("unknown workload '" + name + "'");
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed must be a non-negative integer");
    } else if (arg == "--inputs") {
      opt.inputs_path = value();
    } else if (arg == "--root") {
      opt.repo_root = value();
    } else if (arg == "--scratch") {
      opt.scratch_dir = value();
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg == "--expected") {
      expected_path = value();
    } else if (arg == "--spans") {
      spans_path = value();
    } else if (arg == "--write-expected") {
      write_expected = value();
    } else {
      usage("unknown argument '" + std::string{arg} + "'");
    }
  }
  if (!have_workload) usage("--workload is required");

  try {
    if (!write_expected.empty()) {
      const auto grid = perfbench::resolve_grid(opt);
      std::vector<std::string> digests, labels;
      for (const auto& spec : grid) {
        digests.push_back(perfbench::report_digest(perfbench::run_point(spec)));
        labels.push_back(spec.key());
      }
      perfbench::write_expected_digests(write_expected, digests, labels);
      return 0;
    }
    if (!expected_path.empty()) opt.expected = perfbench::load_expected_digests(expected_path);

    const perfbench::Outcome out =
        traced ? perfbench::measure_traced(opt) : perfbench::measure_untraced(opt);
    if (!spans_path.empty()) {
      std::ofstream spans{spans_path};
      spans << out.spans_json;
    }

    std::uint64_t combined = xdrs::util::kFnv1aBasis;
    for (const auto& d : out.tally.digests()) combined = xdrs::util::fnv1a(d, combined);
    std::string line = "{\"workload\":" + json_string(perfbench::to_string(opt.workload)) +
                       ",\"seed\":" + std::to_string(opt.seed) +
                       ",\"traced\":" + (traced ? "1" : "0") +
                       ",\"attempted\":" + std::to_string(out.tally.attempted()) +
                       ",\"failed\":" + std::to_string(out.tally.failed()) + ",\"errors\":[";
    for (std::size_t i = 0; i < out.tally.errors().size(); ++i) {
      if (i > 0) line += ',';
      line += json_string(out.tally.errors()[i]);
    }
    line += "],\"digest\":" + json_string(xdrs::util::hex16(combined)) + ",\"metrics\":{";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", out.metrics[i].second);
      if (i > 0) line += ',';
      line += json_string(out.metrics[i].first) + ':' + value;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xdrs_perf: %s\n", e.what());
    return 1;
  }
  return 0;
}
