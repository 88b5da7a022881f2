#include "obs/telemetry.hpp"

#include "stats/serialize.hpp"

namespace xdrs::obs {

std::string telemetry_sidecar_json(const RunTelemetry& t, const std::string& key,
                                   const std::string& spec_hash, const std::string& scenario) {
  const Registry& reg = t.registry();
  std::string out{"{\n  \"telemetry_schema\": 2"};
  out += ",\n  \"key\": \"" + stats::json_escape(key) + '"';
  out += ",\n  \"spec_hash\": \"" + stats::json_escape(spec_hash) + '"';
  out += ",\n  \"scenario\": \"" + stats::json_escape(scenario) + '"';

  out += ",\n  \"stages\": [";
  bool first = true;
  for (const auto& timer : reg.timers()) {
    if (!first) out += ',';
    first = false;
    const stats::Summary& s = timer->summary();
    const stats::Histogram& h = timer->histogram();
    out += "\n    {\"name\":\"" + stats::json_escape(timer->name()) + '"';
    out += ",\"count\":" + std::to_string(timer->count());
    out += ",\"total_ns\":" + std::to_string(timer->total_ns());
    out += ",\"mean_ns\":" + stats::format_double(s.mean());
    out += ",\"stddev_ns\":" + stats::format_double(s.stddev());
    out += ",\"min_ns\":" + stats::format_double(s.min());
    out += ",\"max_ns\":" + stats::format_double(s.max());
    out += ",\"p50_ns\":" + std::to_string(h.p50());
    out += ",\"p99_ns\":" + std::to_string(h.p99());
    out += '}';
  }
  out += first ? "]" : "\n  ]";

  out += ",\n  \"spans_kept\": " + std::to_string(reg.spans().size());
  out += ",\n  \"spans_dropped\": " + std::to_string(reg.spans_dropped());

  out += ",\n  \"timeline\": ";
  // timeline_json() renders with 2-space indentation from column 0; reindent
  // under the "timeline" key so the sidecar stays readable as a whole.
  const std::string tl = timeline_json(t.timeline(), t.sample_period());
  for (char ch : tl) {
    out += ch;
    if (ch == '\n') out += "  ";
  }
  out += "\n}\n";
  return out;
}

}  // namespace xdrs::obs
