#include "layers.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "exp/cache.hpp"
#include "net/classifier.hpp"
#include "queueing/voq.hpp"
#include "schedulers/policy_registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "traffic/empirical_cdf.hpp"
#include "traffic/generators.hpp"
#include "traffic/patterns.hpp"

namespace perfbench {

namespace core = xdrs::core;
namespace net = xdrs::net;
namespace sim = xdrs::sim;
namespace schedulers = xdrs::schedulers;

namespace {
// Results of the isolated drives land here so the timed loops stay live.
volatile std::uint64_t g_sink = 0;
}  // namespace

// ------------------------------------------------------------------- spans

std::int64_t SpanLog::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

std::int32_t SpanLog::open(const char* name, std::int32_t parent) {
  const std::int64_t now = ns(Clock::now());
  spans_.push_back(Span{name, now, now, parent});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::close(std::int32_t id) {
  spans_.at(static_cast<std::size_t>(id)).end_ns = ns(Clock::now());
}

void SpanLog::add(const char* name, Clock::time_point start, Clock::time_point end,
                  std::int32_t parent) {
  spans_.push_back(Span{name, ns(start), ns(end), parent});
}

double SpanLog::seconds(std::int32_t id) const {
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::string SpanLog::to_json() const {
  std::string out = "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    out += s.name;
    out += "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) + ",\"parent\":" + std::to_string(s.parent) +
           '}';
  }
  out += "]}\n";
  return out;
}

double Probe::child_seconds() const {
  return matcher.seconds() + circuit.seconds() + snapshot.seconds() + arrivals.seconds() +
         departures.seconds() + deadlines.seconds();
}

// -------------------------------------------------------------- decorators

namespace {

class TimedEstimator final : public xdrs::demand::DemandEstimator {
 public:
  TimedEstimator(std::unique_ptr<DemandEstimator> inner, Probe& probe)
      : inner_{std::move(inner)}, probe_{probe} {}

  void on_arrival(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at) override {
    const auto t0 = Clock::now();
    inner_->on_arrival(src, dst, bytes, at);
    probe_.arrivals.add(t0, Clock::now());
  }
  void on_departure(net::PortId src, net::PortId dst, std::int64_t bytes,
                    sim::Time at) override {
    const auto t0 = Clock::now();
    inner_->on_departure(src, dst, bytes, at);
    probe_.departures.add(t0, Clock::now());
  }
  void on_deadline(net::PortId src, net::PortId dst, sim::Time deadline, sim::Time at) override {
    const auto t0 = Clock::now();
    inner_->on_deadline(src, dst, deadline, at);
    probe_.deadlines.add(t0, Clock::now());
  }
  void snapshot(sim::Time now, xdrs::demand::DemandMatrix& out) override {
    const auto t0 = Clock::now();
    inner_->snapshot(now, out);
    const auto t1 = Clock::now();
    probe_.snapshot.add(t0, t1);
    probe_.log.add("estimator_snapshot", t0, t1, probe_.parent);
  }
  [[nodiscard]] const char* name() const noexcept override { return inner_->name(); }

 private:
  std::unique_ptr<DemandEstimator> inner_;
  Probe& probe_;
};

class TimedMatcher final : public schedulers::MatchingAlgorithm {
 public:
  TimedMatcher(std::unique_ptr<MatchingAlgorithm> inner, Probe& probe)
      : inner_{std::move(inner)}, probe_{probe} {}

  void compute_into(const xdrs::demand::DemandMatrix& demand,
                    schedulers::Matching& out) override {
    const auto t0 = Clock::now();
    inner_->compute_into(demand, out);
    const auto t1 = Clock::now();
    probe_.matcher.add(t0, t1);
    probe_.log.add("matcher", t0, t1, probe_.parent);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::uint32_t last_iterations() const noexcept override {
    return inner_->last_iterations();
  }
  [[nodiscard]] bool hardware_parallel() const noexcept override {
    return inner_->hardware_parallel();
  }

 private:
  std::unique_ptr<MatchingAlgorithm> inner_;
  Probe& probe_;
};

class TimedCircuit final : public schedulers::CircuitScheduler {
 public:
  TimedCircuit(std::unique_ptr<CircuitScheduler> inner, Probe& probe)
      : inner_{std::move(inner)}, probe_{probe} {}

  void plan_into(const xdrs::demand::DemandMatrix& dem, schedulers::CircuitPlan& out) override {
    const auto t0 = Clock::now();
    inner_->plan_into(dem, out);
    const auto t1 = Clock::now();
    probe_.circuit.add(t0, t1);
    probe_.log.add("circuit", t0, t1, probe_.parent);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<CircuitScheduler> inner_;
  Probe& probe_;
};

}  // namespace

void install_decorators(core::HybridSwitchFramework& fw, const core::PolicyStack& stack,
                        Probe& probe) {
  const auto& registry = schedulers::PolicyRegistry::instance();
  const schedulers::PolicyContext ctx = fw.policy_context();
  fw.scheduling().set_estimator(
      std::make_unique<TimedEstimator>(registry.make_estimator(stack.estimator, ctx), probe));
  if (fw.config().discipline == core::SchedulingDiscipline::kSlotted) {
    fw.scheduling().set_matcher(
        std::make_unique<TimedMatcher>(registry.make_matcher(stack.matcher, ctx), probe));
  } else {
    fw.scheduling().set_circuit_scheduler(
        std::make_unique<TimedCircuit>(registry.make_circuit(stack.circuit, ctx), probe));
  }
}

// ---------------------------------------------------------- isolated drives

double event_queue_ns(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  sim::EventQueue q;
  sim::Rng rng{12345};
  std::uint64_t fired = 0;
  const auto horizon = static_cast<std::int64_t>(depth) * 1000;
  for (std::size_t i = 0; i < depth; ++i) {
    q.push(sim::Time::picoseconds(rng.uniform_int(0, horizon)), [&fired, &rng] {
      fired += rng.next_below(2);
    });
  }
  // Enough cycles that clock reads and cold misses vanish in the mean.
  const std::size_t cycles = std::max<std::size_t>(1'000'000, depth * 4);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < cycles; ++i) {
    auto popped = q.pop();
    popped.cb();
    q.push(popped.at + sim::Time::picoseconds(rng.uniform_int(1, horizon)),
           std::move(popped.cb));
  }
  const double s = seconds_between(t0, Clock::now());
  g_sink = fired;
  return s * 1e9 / static_cast<double>(cycles);
}

namespace {

/// The generators topo::attach_workload builds for the workload kinds
/// the benchmark uses — one source per host port, the same seeds.  The
/// drive's window count is checked against the run's offered_packets, so a
/// drift between this and topo/testbed.cpp shows as a failed check.
std::vector<std::unique_ptr<xdrs::traffic::TrafficGenerator>> make_generators(
    const xdrs::exp::ScenarioSpec& spec) {
  using Kind = xdrs::topo::WorkloadSpec::Kind;
  namespace traffic = xdrs::traffic;
  std::vector<std::unique_ptr<traffic::TrafficGenerator>> out;
  const std::uint32_t ports = spec.config.host_ports();
  for (const auto& w : spec.workloads) {
    std::shared_ptr<traffic::EmpiricalSize> empirical;
    if (w.kind == Kind::kEmpirical) {
      empirical = std::make_shared<traffic::EmpiricalSize>(traffic::load_cdf_cached(w.cdf_path));
    }
    for (std::uint32_t p = 0; p < ports; ++p) {
      const std::uint64_t seed = w.seed * 1000003ULL + p;
      auto dest = std::make_shared<traffic::UniformChooser>(ports);
      if (w.kind == Kind::kPoissonUniform) {
        traffic::PoissonGenerator::Config gc;
        gc.src = p;
        gc.line_rate = spec.config.link_rate;
        gc.load = w.load;
        gc.dest = dest;
        gc.size = std::make_shared<traffic::DatacenterPacketMix>();
        gc.seed = seed;
        out.push_back(std::make_unique<traffic::PoissonGenerator>(gc));
      } else if (w.kind == Kind::kFlows || w.kind == Kind::kEmpirical) {
        traffic::FlowGenerator::Config gc;
        gc.src = p;
        gc.line_rate = spec.config.link_rate;
        gc.load = w.load;
        gc.elephant_fraction = w.elephant_fraction;
        gc.size = empirical;
        gc.dest = dest;
        gc.deadline = w.deadline;
        gc.seed = seed;
        out.push_back(std::make_unique<traffic::FlowGenerator>(gc));
      } else {
        throw std::invalid_argument{"drive_traffic: workload kind '" + w.name() +
                                    "' is not used by the benchmark"};
      }
    }
  }
  return out;
}

}  // namespace

TrafficDrive drive_traffic(const xdrs::exp::ScenarioSpec& spec, std::size_t sample_cap) {
  TrafficDrive d;
  d.sample.reserve(sample_cap);
  auto generators = make_generators(spec);
  sim::Simulator bare;
  const sim::Time horizon = spec.warmup + spec.duration;
  const auto sink = [&d, &spec, sample_cap](const net::Packet& p) {
    ++d.packets;
    if (p.created_at >= spec.warmup) ++d.window_packets;
    if (d.sample.size() < sample_cap) d.sample.push_back(p);
  };
  const auto t0 = Clock::now();
  for (auto& g : generators) g->start(bare, sink, horizon);
  bare.run_until(horizon);
  d.seconds = seconds_between(t0, Clock::now());
  d.events = bare.stats().events_executed;
  return d;
}

double classify_ns(const std::vector<net::Packet>& packets) {
  if (packets.empty()) return 0.0;
  net::Classifier classifier;
  std::uint64_t ports = 0;
  const auto t0 = Clock::now();
  for (const net::Packet& p : packets) {
    ports += classifier.classify(p, net::Verdict{p.dst, p.tclass}).out_port;
  }
  const double s = seconds_between(t0, Clock::now());
  g_sink = ports;
  return s * 1e9 / static_cast<double>(packets.size());
}

double voq_ns_per_op(const std::vector<net::Packet>& packets, std::uint32_t ports) {
  if (packets.empty()) return 0.0;
  xdrs::queueing::VoqBank bank{ports, ports};
  const auto t0 = Clock::now();
  for (const net::Packet& p : packets) bank.enqueue(p.src, p);
  std::uint64_t drained = 0;
  for (const net::Packet& p : packets) drained += bank.dequeue(p.src, p.dst).has_value();
  const double s = seconds_between(t0, Clock::now());
  if (drained != packets.size()) throw std::logic_error{"voq replay lost packets"};
  return s * 1e9 / static_cast<double>(2 * packets.size());
}

double cache_store_ms(const std::vector<xdrs::exp::ScenarioSpec>& specs,
                      const std::vector<core::RunReport>& reports, const std::string& dir) {
  std::filesystem::remove_all(dir);
  double total = 0.0;
  {
    xdrs::exp::ResultCache cache{dir};
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto t0 = Clock::now();
      cache.store(specs[i], reports[i]);
      total += seconds_between(t0, Clock::now());
    }
  }
  std::filesystem::remove_all(dir);
  return specs.empty() ? 0.0 : total * 1e3 / static_cast<double>(specs.size());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
