#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <thread>

#include "calibrate.hpp"
#include "harness/sweep.hpp"
#include "layers.hpp"

namespace perfbench {

namespace harness = rica::harness;
namespace stats = rica::stats;

namespace {

using Clock = std::chrono::steady_clock;

/// Simulated length of the zero-length run that times set-up: network,
/// protocols and flows are built and started, then the run ends before any
/// traffic is due.
constexpr double kSetupSimS = 1e-9;
/// Zero-length runs per trial or cell: set-up takes about a millisecond, so
/// a few samples each keep its median steady.
constexpr int kSetupReps = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// This process's peak resident set, MiB.  VmHWM belongs to the process
/// image, unlike getrusage's ru_maxrss, which keeps the high-water mark of
/// whatever ran before exec (here, the Python runner).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// A registry statistic by name; a missing name reads 0 (the registry's
/// names may change under the stack).
double stat(const harness::ScenarioResult& r, const char* name) {
  const auto it = r.stats.find(name);
  return it == r.stats.end() ? 0.0 : it->second.value;
}

std::uint64_t counter(const harness::ScenarioResult& r, const char* name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

/// The per-trial correctness gate: packet conservation per flow and in
/// total, and per-reason drops summing to the drop total.  Returns an
/// empty string when every check holds.
std::string check_summary(const harness::ScenarioResult& r) {
  for (const auto& f : r.flow_summaries) {
    if (f.generated < f.delivered + f.dropped) {
      return "flow " + std::to_string(f.flow) + ": generated " +
             std::to_string(f.generated) + " < delivered " +
             std::to_string(f.delivered) + " + dropped " +
             std::to_string(f.dropped);
    }
  }
  std::uint64_t by_reason = 0;
  for (const auto d : r.drops) by_reason += d;
  if (by_reason != r.dropped) {
    return "per-reason drops sum to " + std::to_string(by_reason) +
           ", dropped is " + std::to_string(r.dropped);
  }
  if (r.generated < r.delivered + r.dropped) {
    return "generated " + std::to_string(r.generated) +
           " < delivered + dropped " + std::to_string(r.delivered + r.dropped);
  }
  if (r.generated == 0) return "no packets generated";
  return {};
}

/// The same scenario with every observability attachment removed.
harness::ScenarioConfig without_obs(harness::ScenarioConfig cfg) {
  cfg.trace_out.clear();
  cfg.flight_recorder = 0;
  cfg.watchdogs = false;
  return cfg;
}

/// Simulated results pooled over the reported trials or cells.
void add_simulated(Output& out, const std::vector<harness::ScenarioResult>& runs) {
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  for (const auto& r : runs) {
    generated += r.generated;
    delivered += r.delivered;
  }
  const auto pooled = harness::average(runs);
  out.metrics.emplace_back(
      "delivery_pct",
      generated == 0 ? 0.0 : 100.0 * static_cast<double>(delivered) /
                                 static_cast<double>(generated));
  out.metrics.emplace_back("delay_p50_ms", pooled.delay_p50_ms);
  out.metrics.emplace_back("delay_p99_ms", pooled.delay_p99_ms);
  out.metrics.emplace_back("overhead_kbps", pooled.overhead_kbps);
}

void fail(Output& out, const std::string& what) {
  ++out.failed;
  out.correct = false;
  out.errors.push_back(what);
}

/// Per-layer sums over the reported traced trials.
struct LayerTotals {
  int trials = 0;
  double events = 0.0;
  double peak_pending = 0.0;
  double untraced_s = 0.0;
  double run_s = 0.0;
  std::array<double, kNumLayers> self_s{};
  std::array<double, kNumLayers> calls{};
  double live_pairs = 0.0;
  double control_tx = 0.0;
  double rx_ok = 0.0;
  double rx_collided = 0.0;
  double queue_drops = 0.0;
  double unicast_fail = 0.0;
  double link_break_drops = 0.0;
  double control_bytes = 0.0;
  double data_header_bytes = 0.0;
  double delivered = 0.0;
  double discoveries = 0.0;
  double discovery_failures = 0.0;
  double generated = 0.0;
  double originate_s = 0.0;
  double setup_network_s = 0.0;
  double setup_protocols_s = 0.0;
  double setup_flows_s = 0.0;
  double trace_bytes = 0.0;

  void add(const TracedTrial& tr, double untraced_wall) {
    const auto& s = tr.summary;
    ++trials;
    events += stat(s, "kernel.events_executed");
    peak_pending = std::max(peak_pending, stat(s, "kernel.peak_pending"));
    untraced_s += untraced_wall;
    run_s += tr.run_s;
    for (std::size_t i = 0; i < kNumLayers; ++i) {
      self_s[i] += tr.self_s[i];
      calls[i] += static_cast<double>(tr.calls[i]);
    }
    live_pairs = std::max(live_pairs, static_cast<double>(tr.live_pairs));
    control_tx += static_cast<double>(s.control_transmissions);
    rx_ok += static_cast<double>(tr.rx_ok);
    rx_collided += static_cast<double>(s.control_collisions);
    queue_drops += static_cast<double>(counter(s, "mac.ctrl_queue_drop"));
    unicast_fail += static_cast<double>(counter(s, "mac.unicast_fail"));
    link_break_drops += static_cast<double>(
        s.drops[static_cast<std::size_t>(stats::DropReason::kLinkBreak)]);
    control_bytes += stat(s, "net.control_bytes_on_air");
    data_header_bytes += stat(s, "net.data_header_bytes");
    delivered += static_cast<double>(s.delivered);
    discoveries += static_cast<double>(tr.discoveries);
    discovery_failures += static_cast<double>(tr.discovery_failures);
    generated += static_cast<double>(tr.originated);
    originate_s += tr.originate_s;
    setup_network_s += tr.setup_network_s;
    setup_protocols_s += tr.setup_protocols_s;
    setup_flows_s += tr.setup_flows_s;
    trace_bytes += static_cast<double>(tr.trace_bytes);
  }

  /// Per-trial means (maxima for the high-water marks).
  void emit(Output& out) const {
    const double n = trials > 0 ? trials : 1;
    const auto self = [this, n](Layer l) {
      return self_s[static_cast<std::size_t>(l)] / n;
    };
    const auto calls_of = [this, n](Layer l) {
      return calls[static_cast<std::size_t>(l)] / n;
    };
    auto& m = out.metrics;
    m.emplace_back("sim.events", events / n);
    m.emplace_back("sim.peak_pending", peak_pending);
    m.emplace_back("sim.ns_per_event",
                   events > 0 ? untraced_s / events * 1e9 : 0.0);
    m.emplace_back("sim.timers_self_s", self(Layer::kTimers));
    m.emplace_back("sim.traced_run_s", run_s / n);
    m.emplace_back("channel.calls", calls_of(Layer::kChannel));
    m.emplace_back("channel.s", self(Layer::kChannel));
    m.emplace_back("channel.live_pairs", live_pairs);
    m.emplace_back("mac.control_tx", control_tx / n);
    m.emplace_back("mac.rx_ok", rx_ok / n);
    m.emplace_back("mac.rx_collided", rx_collided / n);
    m.emplace_back("mac.rx_ok_ratio", rx_ok + rx_collided > 0
                                          ? rx_ok / (rx_ok + rx_collided)
                                          : 0.0);
    m.emplace_back("mac.queue_drops", queue_drops / n);
    m.emplace_back("mac.unicast_fail", unicast_fail / n);
    m.emplace_back("mac.send_calls", calls_of(Layer::kMacSend));
    m.emplace_back("mac.send_s", self(Layer::kMacSend));
    m.emplace_back("mac.link_calls", calls_of(Layer::kLink));
    m.emplace_back("mac.link_s", self(Layer::kLink));
    m.emplace_back("mac.link_break_drops", link_break_drops / n);
    m.emplace_back("net.control_bytes", control_bytes / n);
    m.emplace_back("net.data_header_bytes", data_header_bytes / n);
    m.emplace_back("routing.calls", calls_of(Layer::kRouting));
    m.emplace_back("routing.self_s", self(Layer::kRouting));
    m.emplace_back("routing.discoveries", discoveries / n);
    m.emplace_back("routing.discovery_failures", discovery_failures / n);
    m.emplace_back("routing.ctrl_bytes_per_delivered",
                   delivered > 0 ? control_bytes / delivered : 0.0);
    m.emplace_back("traffic.generated", generated / n);
    m.emplace_back("traffic.originate_s", originate_s / n);
    m.emplace_back("harness.setup_network_s", setup_network_s / n);
    m.emplace_back("harness.setup_protocols_s", setup_protocols_s / n);
    m.emplace_back("harness.setup_flows_s", setup_flows_s / n);
    m.emplace_back("obs.trace_bytes", trace_bytes / n);
    m.emplace_back("obs.sink_s", self(Layer::kObs));
  }
};

/// Compares one traced trial with its untraced twin.  Returns an empty
/// string when the traced run measured the same program and its spans tile
/// the traced run_until wall time.
std::string trace_mismatch(const TracedTrial& tr,
                           const harness::ScenarioResult& untraced) {
  if (tr.summary.stream_hash != untraced.stream_hash) {
    return "traced stream hash differs from the untraced run";
  }
  if (stat(tr.summary, "kernel.events_executed") !=
      stat(untraced, "kernel.events_executed")) {
    return "traced event count differs from the untraced run";
  }
  double self_sum = 0.0;
  for (const double s : tr.self_s) self_sum += s;
  if (!tr.spans_closed || std::abs(self_sum - tr.run_s) > 1e-9 * tr.run_s) {
    return "layer self times do not sum to the traced run_until wall time";
  }
  return {};
}

/// The start-a-new-trial rule: always run the reported trials, then keep
/// going while the next trial is expected to finish inside the budget.
bool another(int done, int fixed, double elapsed, double last, double budget) {
  return done < fixed || elapsed + last <= budget;
}

void emit_cells(Output& out, const std::vector<double>& walls, double busy_s,
                int threads) {
  out.metrics.emplace_back("harness.cells", static_cast<double>(walls.size()));
  out.metrics.emplace_back("harness.cell_s_p50", median(walls));
  out.metrics.emplace_back(
      "harness.cell_s_max",
      walls.empty() ? 0.0 : *std::max_element(walls.begin(), walls.end()));
  double sum = 0.0;
  for (const double w : walls) sum += w;
  out.metrics.emplace_back("harness.parallel_efficiency",
                           busy_s > 0 ? sum / (threads * busy_s) : 0.0);
}


/// Emits the timing metrics of an untraced run from its rescaled round
/// times: `work_s` simulated seconds and `cells` trials or grid cells make
/// one round.
void emit_timings(Output& out, const std::vector<double>& round_s,
                  const std::vector<double>& raw_round_s,
                  const std::vector<double>& refs, double work_s, double cells) {
  const double p50 = median(round_s);
  const double raw_p50 = median(raw_round_s);
  out.metrics.emplace_back("sim_rate", p50 > 0 ? work_s / p50 : 0.0);
  out.metrics.emplace_back("cells_per_s", p50 > 0 ? cells / p50 : 0.0);
  // Context for the reader, not in BENCHMARK.json: how many rounds the
  // medians span, the unscaled rate, and the reference kernel's median.
  out.metrics.emplace_back("rounds", static_cast<double>(round_s.size()));
  out.metrics.emplace_back("sim_rate_unscaled",
                           raw_p50 > 0 ? work_s / raw_p50 : 0.0);
  out.metrics.emplace_back("reference_ms_p50", 1e3 * median(refs));
}

/// The untraced single-scenario workload.  Its first `timed_trials` trials
/// make one round of fixed work, and rounds repeat while the budget lasts,
/// so every round of a run, and every run with the same seed, times the
/// same work.  The first round also runs the rest of the `fixed_trials`
/// reported trials; its results are the simulated metrics, and later rounds
/// must reproduce its stream hashes.
Output scenario_timed(const harness::ScenarioConfig& base, bool obs,
                      const RunOptions& opt) {
  Output out;
  const int k = opt.fixed_trials;
  const int timed = opt.timed_trials;
  std::vector<harness::ScenarioConfig> trials(k, base);
  for (int t = 0; t < k; ++t) trials[t].seed = harness::trial_seed(base, t);
  std::vector<harness::ScenarioResult> reported;
  std::vector<std::uint64_t> first_hash(k, 0);
  std::vector<double> round_s;
  std::vector<double> raw_round_s;
  std::vector<double> refs;
  std::vector<double> setups;
  double rss_mb = 0.0;
  const auto t_loop = Clock::now();
  double last = 0.0;
  for (int round = 0; round == 0 || since(t_loop) + last <= opt.seconds;
       ++round) {
    const auto t_round = Clock::now();
    double wall_sum = 0.0;
    double ref_sum = 0.0;
    bool whole = true;
    for (int t = 0; t < (round == 0 ? k : timed); ++t) {
      const auto& cfg = trials[t];
      const std::string label =
          "round " + std::to_string(round) + " trial " + std::to_string(t);
      ++out.attempted;
      try {
        const double ref = reference_s();
        refs.push_back(ref);
        harness::ScenarioConfig zero = cfg;
        zero.sim_s = kSetupSimS;
        for (int rep = 0; rep < kSetupReps; ++rep) {
          const auto t0 = Clock::now();
          (void)harness::run_scenario(zero);
          setups.push_back(rescaled(since(t0), ref));
        }
        const auto t0 = Clock::now();
        auto r = harness::run_scenario(cfg);
        const double wall = since(t0);
        std::string err = check_summary(r);
        if (round == 0) {
          first_hash[t] = r.stream_hash;
          if (err.empty() && obs &&
              harness::run_scenario(without_obs(cfg)).stream_hash != r.stream_hash) {
            err = "stream hash with observability differs from the plain run";
          }
        } else if (err.empty() && r.stream_hash != first_hash[t]) {
          err = "stream hash differs from the trial's first run";
        }
        if (err.empty()) {
          wall_sum += t < timed ? wall : 0.0;
          ref_sum += t < timed ? ref : 0.0;
        } else {
          whole = whole && t >= timed;
          fail(out, label + ": " + err);
        }
        if (round == 0) reported.push_back(std::move(r));
      } catch (const std::exception& e) {
        whole = whole && t >= timed;
        fail(out, label + ": " + e.what());
      }
      // The next round repeats the timed trials only.
      if (t + 1 == timed) last = since(t_round);
    }
    if (whole) {
      round_s.push_back(rescaled(wall_sum, ref_sum / timed));
      raw_round_s.push_back(wall_sum);
    }
    if (round == 0) rss_mb = peak_rss_mb();
  }
  out.metrics.emplace_back("setup_s", median(setups));
  out.metrics.emplace_back("peak_rss_mb", rss_mb);
  emit_timings(out, round_s, raw_round_s, refs, timed * base.sim_s, timed);
  add_simulated(out, reported);
  return out;
}

/// The traced single-scenario workload: each trial runs untraced, then
/// traced, and the two must agree (see trace_mismatch).
Output scenario_traced(const harness::ScenarioConfig& base, bool obs,
                       const RunOptions& opt) {
  Output out;
  std::vector<double> walls;
  std::vector<double> overheads;
  double untraced_busy_s = 0.0;
  bool fresh = true;
  LayerTotals layers;
  const auto t_loop = Clock::now();
  double last = 0.0;
  for (int t = 0; another(t, opt.fixed_trials, since(t_loop), last, opt.seconds);
       ++t) {
    const auto t_trial = Clock::now();
    harness::ScenarioConfig cfg = base;
    cfg.seed = harness::trial_seed(base, t);
    ++out.attempted;
    try {
      const auto t0 = Clock::now();
      const auto r = harness::run_scenario(cfg);
      const double wall = since(t0);
      std::string err = check_summary(r);
      untraced_busy_s += since(t0);
      if (err.empty() && obs &&
          harness::run_scenario(without_obs(cfg)).stream_hash != r.stream_hash) {
        err = "stream hash with observability differs from the plain run";
      }
      if (!err.empty()) {
        fail(out, "trial " + std::to_string(t) + ": " + err);
      } else {
        walls.push_back(wall);
      }
      // The untraced run left its JSONL trace behind; the traced run
      // must write the same bytes.
      const std::uint64_t trace_bytes =
          cfg.trace_out.empty() ? 0 : std::filesystem::file_size(cfg.trace_out);
      const auto t1 = Clock::now();
      const TracedTrial tr = run_traced(cfg);
      overheads.push_back(since(t1) / wall);
      auto why = trace_mismatch(tr, r);
      if (why.empty() && tr.trace_bytes != trace_bytes) {
        why = "traced JSONL trace size differs from the untraced run";
      }
      if (!why.empty()) {
        fresh = false;
        out.errors.push_back("trial " + std::to_string(t) + ": " + why +
                             "; per-layer figures are stale");
      }
      if (t < opt.fixed_trials) layers.add(tr, wall);
    } catch (const std::exception& e) {
      fail(out, "trial " + std::to_string(t) + ": " + e.what());
    }
    last = since(t_trial);
  }
  layers.emit(out);
  out.metrics.emplace_back("harness.trace_overhead", median(overheads));
  out.metrics.emplace_back("harness.trace_fresh", fresh ? 1.0 : 0.0);
  emit_cells(out, walls, untraced_busy_s, 1);
  return out;
}

}  // namespace

Output scenario_workload(const harness::ScenarioConfig& base, bool obs,
                         const RunOptions& opt) {
  return opt.trace ? scenario_traced(base, obs, opt)
                   : scenario_timed(base, obs, opt);
}

namespace {

/// The grid's cells in run_speed_sweep's (load, speed, protocol) order,
/// each configured as the sweep configures it for `sweep_seed`.
std::vector<harness::ScenarioConfig> grid_cells(const SweepSpec& spec,
                                                std::uint64_t sweep_seed) {
  std::vector<harness::ScenarioConfig> cells;
  for (const double load : spec.loads) {
    for (const double speed : harness::paper_speeds()) {
      for (const auto proto : harness::kAllProtocols) {
        harness::ScenarioConfig cfg = spec.base;
        cfg.protocol = proto;
        cfg.mean_speed_kmh = speed;
        cfg.pkts_per_s = load;
        cfg.seed = sweep_seed;
        cfg.seed = harness::trial_seed(cfg, 0);
        cells.push_back(std::move(cfg));
      }
    }
  }
  return cells;
}

harness::BenchScale sweep_scale(const SweepSpec& spec, std::uint64_t seed) {
  harness::BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = spec.base.sim_s;
  scale.seed = seed;
  scale.threads = spec.threads;
  scale.preset = "paper";
  scale.mobility = spec.base.mobility;
  scale.traffic = spec.base.traffic;
  scale.pause_s = spec.base.pause_s;
  scale.warmup_s = 0.0;
  scale.verbose = false;
  return scale;
}

/// Per-sweep base seed: distinct for every (seed, sweep) pair the benchmark
/// can be asked for.
std::uint64_t sweep_seed(std::uint64_t seed, int sweep) {
  return seed * 1000 + static_cast<std::uint64_t>(sweep);
}

/// One traced cell and its untraced twin, as a sweep worker runs them.
struct CellRun {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  harness::ScenarioResult untraced;
  TracedTrial traced;
  std::string error;
};

/// Runs every cell untraced then traced on `threads` workers, in the
/// sweep pool's claim-the-next-cell order.
std::vector<CellRun> run_cells_traced(
    const std::vector<harness::ScenarioConfig>& cells, int threads) {
  std::vector<CellRun> runs(cells.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < cells.size();
         i = next.fetch_add(1)) {
      auto& run = runs[i];
      try {
        auto t0 = Clock::now();
        run.untraced = harness::run_scenario(cells[i]);
        run.untraced_s = since(t0);
        t0 = Clock::now();
        run.traced = run_traced(cells[i]);
        run.traced_s = since(t0);
      } catch (const std::exception& e) {
        run.error = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();
  return runs;
}

/// The untraced sweep: the grid for one base seed is the round of fixed
/// work, repeated while the budget lasts.  Each repeat must reproduce the
/// first sweep's cell stream hashes, and the first sweep's cells give the
/// simulated metrics.
Output sweep_timed(const SweepSpec& spec, const RunOptions& opt) {
  Output out;
  const std::uint64_t seed = sweep_seed(opt.seed, 0);
  const auto cells = grid_cells(spec, seed);
  const std::size_t ncells = cells.size();
  std::vector<harness::ScenarioResult> reported;
  std::vector<double> setups;
  std::vector<double> sweep_s;
  std::vector<double> raw_sweep_s;
  std::vector<double> refs;
  double rss_mb = 0.0;
  const auto t_loop = Clock::now();
  double last = 0.0;
  for (int s = 0; s == 0 || since(t_loop) + last <= opt.seconds; ++s) {
    const auto t_sweep = Clock::now();
    const std::string label = "sweep " + std::to_string(s);
    out.attempted += ncells;
    // Set-up of every cell once per sweep, so its samples span the run.
    const double setup_ref = reference_s();
    for (auto cfg : cells) {
      cfg.sim_s = kSetupSimS;
      const auto t0 = Clock::now();
      (void)harness::run_scenario(cfg);
      setups.push_back(rescaled(since(t0), setup_ref));
    }
    std::vector<harness::SweepPoint> grid;
    const double ref = reference_s(spec.threads);
    refs.push_back(ref);
    double wall = 0.0;
    try {
      const auto t0 = Clock::now();
      grid = harness::run_speed_sweep(harness::paper_speeds(), spec.loads,
                                      sweep_scale(spec, seed));
      wall = since(t0);
    } catch (const std::exception& e) {
      out.failed += ncells;
      out.correct = false;
      out.errors.push_back(label + ": " + e.what());
      last = since(t_sweep);
      continue;
    }
    bool all_ok = grid.size() == ncells;
    if (!all_ok) fail(out, label + " returned the wrong number of cells");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      std::string err = check_summary(grid[i].result);
      if (err.empty() && s > 0 && i < reported.size() &&
          grid[i].result.stream_hash != reported[i].stream_hash) {
        err = "stream hash differs from the first sweep's";
      }
      if (!err.empty()) {
        all_ok = false;
        fail(out, label + " cell " + std::to_string(i) + ": " + err);
      }
    }
    if (all_ok) {
      sweep_s.push_back(rescaled(wall, ref));
      raw_sweep_s.push_back(wall);
    }
    if (s == 0) {
      for (auto& p : grid) reported.push_back(std::move(p.result));
      rss_mb = peak_rss_mb();
    }
    last = since(t_sweep);
  }
  out.metrics.emplace_back("setup_s", median(setups));
  out.metrics.emplace_back("peak_rss_mb", rss_mb);
  emit_timings(out, sweep_s, raw_sweep_s, refs,
               static_cast<double>(ncells) * spec.base.sim_s,
               static_cast<double>(ncells));
  add_simulated(out, reported);
  return out;
}

/// The traced sweep: each sweep runs through the pool untraced, then every
/// cell replays untraced and traced outside it (see run_cells_traced).
Output sweep_traced(const SweepSpec& spec, const RunOptions& opt) {
  Output out;
  const std::size_t ncells = spec.loads.size() * harness::paper_speeds().size() *
                             harness::kAllProtocols.size();
  std::vector<double> cell_walls;
  std::vector<double> overheads;
  double sweep_walls = 0.0;
  bool fresh = true;
  LayerTotals layers;
  const auto t_loop = Clock::now();
  double last = 0.0;
  for (int s = 0; another(s, opt.fixed_trials, since(t_loop), last, opt.seconds);
       ++s) {
    const auto t_sweep = Clock::now();
    const std::uint64_t seed = sweep_seed(opt.seed, s);
    out.attempted += ncells;
    std::vector<harness::SweepPoint> grid;
    try {
      const auto t0 = Clock::now();
      grid = harness::run_speed_sweep(harness::paper_speeds(), spec.loads,
                                      sweep_scale(spec, seed));
      sweep_walls += since(t0);
    } catch (const std::exception& e) {
      out.failed += ncells;
      out.correct = false;
      out.errors.push_back("sweep " + std::to_string(s) + ": " + e.what());
      last = since(t_sweep);
      continue;
    }
    if (grid.size() != ncells) fail(out, "sweep returned the wrong number of cells");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (const auto err = check_summary(grid[i].result); !err.empty()) {
        fail(out, "sweep " + std::to_string(s) + " cell " + std::to_string(i) +
                      ": " + err);
      }
    }
    const auto runs = run_cells_traced(grid_cells(spec, seed), spec.threads);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& run = runs[i];
      if (!run.error.empty()) {
        fail(out, "traced cell " + std::to_string(i) + ": " + run.error);
        continue;
      }
      std::string why = trace_mismatch(run.traced, run.untraced);
      if (why.empty() && i < grid.size() &&
          stats::fnv1a(stats::kFnvOffsetBasis, run.untraced.stream_hash) !=
              grid[i].result.stream_hash) {
        why = "cell replayed outside the sweep differs from the sweep's";
      }
      if (!why.empty()) {
        fresh = false;
        out.errors.push_back("cell " + std::to_string(i) + ": " + why +
                             "; per-layer figures are stale");
      }
      cell_walls.push_back(run.untraced_s);
      overheads.push_back(run.traced_s / run.untraced_s);
      if (s < opt.fixed_trials) layers.add(run.traced, run.untraced_s);
    }
    last = since(t_sweep);
  }
  layers.emit(out);
  out.metrics.emplace_back("harness.trace_overhead", median(overheads));
  out.metrics.emplace_back("harness.trace_fresh", fresh ? 1.0 : 0.0);
  emit_cells(out, cell_walls, sweep_walls, spec.threads);
  return out;
}

}  // namespace

Output sweep_workload(const SweepSpec& spec, const RunOptions& opt) {
  return opt.trace ? sweep_traced(spec, opt) : sweep_timed(spec, opt);
}

}  // namespace perfbench
