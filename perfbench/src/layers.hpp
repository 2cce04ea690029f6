// Outside-in layer timing for the benchmark's traced run.
//
// The traced run builds a network the way harness::run_scenario does, but
// wraps every node's routing protocol in a timing decorator and builds the
// real protocol on a timing ProtocolHost that forwards to the Node.  Nothing
// under src/ is edited: the spans are taken at the public layer boundaries
// the stack already has.
//
//   routing  TimingProtocol entries (start, handle_data, on_control,
//            on_link_break) — inclusive, minus the host calls beneath them
//   channel  host link_csi / neighbors_in_range (routing's channel queries)
//   mac      host send_control (the common-channel MAC's enqueue path)
//   link     host forward_data / drain_queue (the link transmitter)
//   obs      the JSONL trace sink and flight recorder (paper-obs only)
//   timers   Simulator::run_until outside every span above: kernel dispatch
//            plus timer-driven MAC, link, traffic and protocol-timer work
//
// Self times are exact by construction: a span's self time is its duration
// minus its child spans, so the self times of every layer sum to the
// run_until wall time whenever every span closed.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kTimers,
  kRouting,
  kChannel,
  kMacSend,
  kLink,
  kObs,
};
inline constexpr std::size_t kNumLayers = 6;

/// Stack of open spans with per-layer self time and entry counts.
class SpanStack {
 public:
  using Clock = std::chrono::steady_clock;

  void enter(Layer layer);
  /// Closes the innermost span; returns its duration, nanoseconds.
  std::int64_t leave();
  void reset();

  [[nodiscard]] bool empty() const { return frames_.empty(); }
  [[nodiscard]] double self_s(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<std::size_t>(layer)]) *
           1e-9;
  }
  [[nodiscard]] std::uint64_t calls(Layer layer) const {
    return calls_[static_cast<std::size_t>(layer)];
  }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    std::int64_t child_ns;
  };
  std::vector<Frame> frames_;
  std::array<std::int64_t, kNumLayers> self_ns_{};
  std::array<std::uint64_t, kNumLayers> calls_{};
};

/// What one traced trial measured.
struct TracedTrial {
  rica::harness::ScenarioResult summary;  ///< as run_scenario returns it
  double setup_network_s = 0.0;
  double setup_protocols_s = 0.0;
  double setup_flows_s = 0.0;
  double run_s = 0.0;  ///< traced run_until wall time (the root span)
  std::array<double, kNumLayers> self_s{};
  std::array<std::uint64_t, kNumLayers> calls{};
  bool spans_closed = false;  ///< every span closed and self times tile run_s
  std::uint64_t rx_ok = 0;           ///< control receptions handed to routing
  std::uint64_t originated = 0;      ///< packets the traffic layer handed in
  double originate_s = 0.0;          ///< inclusive time of those hand-offs
  std::uint64_t discoveries = 0;     ///< route discoveries started
  std::uint64_t discovery_failures = 0;
  std::uint64_t live_pairs = 0;      ///< channel pair processes at run end
  std::uint64_t trace_bytes = 0;     ///< JSONL trace size (0 without one)
};

/// Runs one scenario through the instrumented build.  Observability
/// attachments are taken from `cfg` exactly as run_scenario takes them
/// (JSONL trace, flight recorder, watchdogs; Perfetto and series output are
/// not supported here and are rejected).
[[nodiscard]] TracedTrial run_traced(const rica::harness::ScenarioConfig& cfg);

}  // namespace perfbench
