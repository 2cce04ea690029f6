#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/rica.hpp"
#include "net/network.hpp"
#include "obs/anomaly.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "routing/abr/abr.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/bgca/bgca.hpp"
#include "routing/linkstate/linkstate.hpp"
#include "traffic/traffic_model.hpp"

namespace perfbench {

namespace harness = rica::harness;
namespace net = rica::net;
namespace obs = rica::obs;
namespace routing = rica::routing;
namespace sim = rica::sim;

void SpanStack::enter(Layer layer) {
  frames_.push_back(Frame{layer, Clock::now(), 0});
}

std::int64_t SpanStack::leave() {
  const auto end = Clock::now();
  const Frame f = frames_.back();
  frames_.pop_back();
  const std::int64_t dur =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - f.start)
          .count();
  const auto i = static_cast<std::size_t>(f.layer);
  self_ns_[i] += dur - f.child_ns;
  ++calls_[i];
  if (!frames_.empty()) frames_.back().child_ns += dur;
  return dur;
}

void SpanStack::reset() {
  frames_.clear();
  self_ns_.fill(0);
  calls_.fill(0);
}

namespace {

class Span {
 public:
  Span(SpanStack& spans, Layer layer) : spans_(spans) { spans_.enter(layer); }
  ~Span() { spans_.leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStack& spans_;
};

/// Counters the decorators keep beside the spans.
struct RoutingCounts {
  std::uint64_t rx_ok = 0;
  std::uint64_t originated = 0;
  std::int64_t originate_ns = 0;
  std::uint64_t discoveries = 0;
  std::uint64_t discovery_failures = 0;
};

/// The host the real protocol is built on: forwards every service to the
/// Node, timing the ones that enter another layer.
class TimingHost final : public routing::ProtocolHost {
 public:
  TimingHost(net::Node& node, SpanStack& spans, RoutingCounts& counts)
      : node_(node), spans_(spans), counts_(counts) {}

  [[nodiscard]] net::NodeId id() const override { return node_.id(); }
  sim::Simulator& simulator() override { return node_.simulator(); }
  sim::RandomStream& protocol_rng() override { return node_.protocol_rng(); }
  void send_control(net::ControlPacket pkt) override {
    const Span span(spans_, Layer::kMacSend);
    node_.send_control(std::move(pkt));
  }
  std::optional<rica::channel::CsiClass> link_csi(
      net::NodeId neighbor) override {
    const Span span(spans_, Layer::kChannel);
    return node_.link_csi(neighbor);
  }
  std::vector<net::NodeId> neighbors_in_range() override {
    const Span span(spans_, Layer::kChannel);
    return node_.neighbors_in_range();
  }
  void forward_data(net::DataPacket pkt, net::NodeId next_hop) override {
    const Span span(spans_, Layer::kLink);
    node_.forward_data(std::move(pkt), next_hop);
  }
  void deliver_local(const net::DataPacket& pkt) override {
    node_.deliver_local(pkt);
  }
  void drop_data(const net::DataPacket& pkt,
                 rica::stats::DropReason reason) override {
    node_.drop_data(pkt, reason);
  }
  std::vector<net::DataPacket> drain_queue(net::NodeId neighbor) override {
    const Span span(spans_, Layer::kLink);
    return node_.drain_queue(neighbor);
  }
  [[nodiscard]] std::size_t buffered_count() const override {
    return node_.buffered_count();
  }
  void count(const std::string& name, std::uint64_t by) override {
    node_.count(name, by);
  }
  void trace_route(std::string_view stage, net::NodeId src, net::NodeId dst,
                   std::uint32_t bid, double metric,
                   std::string_view detail) override {
    if (stage == "discovery_start") ++counts_.discoveries;
    if (stage == "discovery_failed") ++counts_.discovery_failures;
    node_.trace_route(stage, src, dst, bid, metric, detail);
  }

 private:
  net::Node& node_;
  SpanStack& spans_;
  RoutingCounts& counts_;
};

/// The protocol installed on the Node: times every entry into routing and
/// forwards it to the real protocol.
class TimingProtocol final : public routing::Protocol {
 public:
  template <typename Make>
  TimingProtocol(net::Node& node, SpanStack& spans, RoutingCounts& counts,
                 Make&& make)
      : routing::Protocol(node),
        spans_(spans),
        counts_(counts),
        timing_host_(node, spans, counts),
        inner_(make(timing_host_)) {}

  [[nodiscard]] routing::Protocol& inner() { return *inner_; }

  void start() override {
    const Span span(spans_, Layer::kRouting);
    inner_->start();
  }
  void handle_data(net::DataPacket pkt, net::NodeId from) override {
    if (from != host().id()) {
      const Span span(spans_, Layer::kRouting);
      inner_->handle_data(std::move(pkt), from);
      return;
    }
    // A locally originated packet: the traffic layer's hand-off.
    ++counts_.originated;
    const auto t0 = SpanStack::Clock::now();
    {
      const Span span(spans_, Layer::kRouting);
      inner_->handle_data(std::move(pkt), from);
    }
    counts_.originate_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                                SpanStack::Clock::now() - t0)
                                .count();
  }
  void on_control(const net::ControlPacket& pkt, net::NodeId from) override {
    ++counts_.rx_ok;
    const Span span(spans_, Layer::kRouting);
    inner_->on_control(pkt, from);
  }
  void on_link_break(net::NodeId neighbor,
                     std::vector<net::DataPacket> stranded) override {
    const Span span(spans_, Layer::kRouting);
    inner_->on_link_break(neighbor, std::move(stranded));
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] double table_load() const override {
    return inner_->table_load();
  }

 private:
  SpanStack& spans_;
  RoutingCounts& counts_;
  TimingHost timing_host_;  // declared before inner_: outlives it
  std::unique_ptr<routing::Protocol> inner_;
};

/// A trace sink that times and forwards every record (the obs layer).
class TimingSink final : public obs::TraceSink {
 public:
  TimingSink(obs::TraceSink& inner, SpanStack& spans)
      : inner_(inner), spans_(spans) {}
  void on_packet(const obs::PacketTrace& rec) override {
    const Span span(spans_, Layer::kObs);
    inner_.on_packet(rec);
  }
  void on_route(const obs::RouteTrace& rec) override {
    const Span span(spans_, Layer::kObs);
    inner_.on_route(rec);
  }
  void on_kernel(const obs::KernelTrace& rec) override {
    const Span span(spans_, Layer::kObs);
    inner_.on_kernel(rec);
  }
  void on_span(const obs::SpanTrace& rec) override {
    const Span span(spans_, Layer::kObs);
    inner_.on_span(rec);
  }

 private:
  obs::TraceSink& inner_;
  SpanStack& spans_;
};

std::unique_ptr<routing::Protocol> make_protocol(
    routing::ProtocolHost& host, const harness::ScenarioConfig& cfg) {
  switch (cfg.protocol) {
    case harness::ProtocolKind::kRica:
      return std::make_unique<rica::core::RicaProtocol>(host, cfg.rica);
    case harness::ProtocolKind::kAodv:
      return std::make_unique<routing::AodvProtocol>(host);
    case harness::ProtocolKind::kBgca: {
      routing::BgcaConfig bgca;
      bgca.flow_rate_bps = cfg.pkts_per_s * cfg.packet_bytes * 8.0;
      return std::make_unique<routing::BgcaProtocol>(host, bgca);
    }
    case harness::ProtocolKind::kAbr:
      return std::make_unique<routing::AbrProtocol>(host);
    case harness::ProtocolKind::kLinkState: {
      routing::LinkStateConfig ls;
      ls.num_nodes = cfg.num_nodes;
      return std::make_unique<routing::LinkStateProtocol>(host, ls);
    }
  }
  throw std::invalid_argument("unknown protocol kind");
}

/// Installs a TimingProtocol around the real protocol on every node.
void install_protocols(
    net::Network& network, const harness::ScenarioConfig& cfg,
    SpanStack& spans, RoutingCounts& counts) {
  std::vector<TimingProtocol*> decorators;
  decorators.reserve(network.size());
  for (net::NodeId id = 0; id < network.size(); ++id) {
    auto& node = network.node(id);
    auto decorator = std::make_unique<TimingProtocol>(
        node, spans, counts,
        [&cfg](routing::ProtocolHost& host) { return make_protocol(host, cfg); });
    decorators.push_back(decorator.get());
    node.set_protocol(std::move(decorator));
  }
  if (cfg.protocol == harness::ProtocolKind::kLinkState) {
    // The paper installs an accurate t = 0 topology into every terminal.
    const auto n = static_cast<std::uint32_t>(network.size());
    routing::LinkStateProtocol::Topology topo(n);
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = 0; b < n; ++b) {
        if (a == b) continue;
        if (const auto s = network.channel().sample(a, b, sim::Time::zero())) {
          topo[a].emplace_back(b, s->csi);
        }
      }
      std::sort(topo[a].begin(), topo[a].end());
    }
    for (auto* d : decorators) {
      static_cast<routing::LinkStateProtocol&>(d->inner())
          .install_topology(topo);
    }
  }
}

/// Traffic pairs connected in the t = 0 range graph, drawn as run_scenario
/// draws them.
std::vector<rica::traffic::Flow> connected_flows(
    net::Network& network, const harness::ScenarioConfig& cfg,
    const rica::traffic::TrafficConfig& tcfg) {
  auto flow_rng = network.rng().stream("flows");
  const auto n = static_cast<std::uint32_t>(network.size());
  std::vector<std::uint32_t> comp(n, n);
  std::uint32_t next_comp = 0;
  std::vector<std::uint32_t> stack;
  for (std::uint32_t start = 0; start < n; ++start) {
    if (comp[start] != n) continue;
    comp[start] = next_comp;
    stack.push_back(start);
    while (!stack.empty()) {
      const auto u = stack.back();
      stack.pop_back();
      for (const auto v :
           network.channel().neighbors_of(u, sim::Time::zero())) {
        if (comp[v] == n) {
          comp[v] = next_comp;
          stack.push_back(v);
        }
      }
    }
    ++next_comp;
  }
  std::vector<rica::traffic::Flow> flows;
  for (int attempt = 0; attempt < 64; ++attempt) {
    flows = rica::traffic::make_flows(tcfg, cfg.num_pairs, cfg.num_nodes,
                                      cfg.pkts_per_s, flow_rng);
    const bool ok = std::all_of(
        flows.begin(), flows.end(), [&comp](const rica::traffic::Flow& f) {
          return comp[f.src] == comp[f.dst];
        });
    if (ok) break;
  }
  return flows;
}

double seconds_since(SpanStack::Clock::time_point t0) {
  return std::chrono::duration<double>(SpanStack::Clock::now() - t0).count();
}

}  // namespace

TracedTrial run_traced(const harness::ScenarioConfig& cfg) {
  if (!cfg.perfetto_out.empty() || !cfg.series_out.empty() ||
      !cfg.flight_dump.empty() || cfg.warmup_s > 0.0) {
    throw std::invalid_argument(
        "traced run supports JSONL trace, flight recorder and watchdogs only");
  }
  harness::validate_scenario(cfg);
  const auto tcfg = rica::traffic::parse_traffic_spec(cfg.traffic);
  TracedTrial out;
  SpanStack spans;
  RoutingCounts counts;

  auto t0 = SpanStack::Clock::now();
  net::NetworkConfig ncfg;
  ncfg.num_nodes = cfg.num_nodes;
  ncfg.mobility = harness::scenario_mobility_config(cfg);
  ncfg.channel.range_m = cfg.radio_range_m;
  ncfg.seed = cfg.seed;
  net::Network network(ncfg);
  out.setup_network_s = seconds_since(t0);

  t0 = SpanStack::Clock::now();
  install_protocols(network, cfg, spans, counts);
  out.setup_protocols_s = seconds_since(t0);

  // Observability attachments, in run_scenario's order (Perfetto and series
  // output are rejected above).
  t0 = SpanStack::Clock::now();
  obs::Tracer& tracer = network.metrics().tracer();
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  std::unique_ptr<TimingSink> timed_sink;
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<TimingSink> timed_recorder;
  std::unique_ptr<obs::SpanBook> span_book;
  std::unique_ptr<obs::AnomalyMonitor> watchdog;
  obs::TraceFilter filter = obs::TraceFilter::kNone;
  if (!cfg.trace_out.empty()) {
    filter = obs::parse_trace_filter(cfg.trace_filter);
    trace_sink = std::make_unique<obs::JsonlTraceSink>(cfg.trace_out);
    timed_sink = std::make_unique<TimingSink>(*trace_sink, spans);
    tracer.attach(timed_sink.get(), filter);
  }
  if (cfg.flight_recorder > 0) {
    recorder = std::make_unique<obs::FlightRecorder>(cfg.flight_recorder);
    timed_recorder = std::make_unique<TimingSink>(*recorder, spans);
    tracer.attach_recorder(timed_recorder.get(), obs::TraceFilter::kAll);
  }
  if (recorder != nullptr ||
      (trace_sink != nullptr && obs::has(filter, obs::TraceFilter::kSpan))) {
    span_book = std::make_unique<obs::SpanBook>(tracer);
    tracer.set_span_book(span_book.get());
  }
  if (cfg.watchdogs) {
    obs::AnomalySources sources;
    sources.dropped_total = [&network] {
      return network.metrics().dropped_total();
    };
    sources.discovery_failures = [&network] {
      return network.metrics().discovery_failures();
    };
    sources.buffered_packets = [&network] {
      return static_cast<std::uint64_t>(network.buffered_packets());
    };
    sources.stalled_flows = [&network](sim::Time cutoff) {
      std::uint64_t stalled = 0;
      const sim::Time epoch = network.metrics().epoch_start();
      for (const auto& [id, f] : network.metrics().flow_stats()) {
        if (f.generated <= f.delivered + f.dropped) continue;
        const sim::Time last =
            f.last_delivery > epoch ? f.last_delivery : epoch;
        if (last < cutoff) ++stalled;
      }
      return stalled;
    };
    watchdog = std::make_unique<obs::AnomalyMonitor>(
        cfg.anomaly, std::move(sources), network.registry());
    watchdog->set_recorder(recorder.get(), "");
    watchdog->start(network.simulator(), sim::seconds_f(cfg.sim_s));
  }
  std::unique_ptr<obs::KernelProbe> probe;
  if (obs::has(filter, obs::TraceFilter::kKernel)) {
    probe = std::make_unique<obs::KernelProbe>(&tracer, nullptr);
    network.simulator().set_kernel_observer(
        probe.get(), sim::seconds_f(cfg.sim_s / 200.0));
  }

  auto flows = connected_flows(network, cfg, tcfg);
  const auto generator = rica::traffic::make_traffic_model(
      tcfg, network, std::move(flows), cfg.packet_bytes,
      sim::seconds_f(cfg.sim_s), network.rng().stream("traffic"));
  network.start();
  generator->start();
  out.setup_flows_s = seconds_since(t0);

  // Protocol start() spans belong to set-up; the run starts from zero.
  spans.reset();
  counts = RoutingCounts{};
  spans.enter(Layer::kTimers);
  network.simulator().run_until(sim::seconds_f(cfg.sim_s));
  out.run_s = static_cast<double>(spans.leave()) * 1e-9;
  out.spans_closed = spans.empty();
  // Read the spans now: flushing open packet spans below emits records
  // after the run.
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    out.self_s[i] = spans.self_s(static_cast<Layer>(i));
    out.calls[i] = spans.calls(static_cast<Layer>(i));
  }

  if (span_book != nullptr) span_book->finish(sim::seconds_f(cfg.sim_s));
  out.summary = network.metrics().finalize(sim::seconds_f(cfg.sim_s));
  for (auto& s : network.registry().snapshot()) {
    out.summary.stats.emplace(s.name, std::move(s));
  }
  tracer.attach(nullptr, obs::TraceFilter::kNone);
  tracer.attach_recorder(nullptr, obs::TraceFilter::kNone);
  tracer.set_span_book(nullptr);
  network.simulator().set_kernel_observer(nullptr, sim::Time::zero());
  if (trace_sink != nullptr) {
    trace_sink.reset();  // closes the file, flushing it
    out.trace_bytes = std::filesystem::file_size(cfg.trace_out);
  }

  out.rx_ok = counts.rx_ok;
  out.originated = counts.originated;
  out.originate_s = static_cast<double>(counts.originate_ns) * 1e-9;
  out.discoveries = counts.discoveries;
  out.discovery_failures = counts.discovery_failures;
  out.live_pairs = network.channel().live_pairs();
  return out;
}

}  // namespace perfbench
