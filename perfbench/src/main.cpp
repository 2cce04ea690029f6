// ricabench: the simulator benchmark's measuring program.  perfbench/run.py
// builds it, passes each workload's scenario fields explicitly, and turns
// the JSON line it prints last into the benchmark's result.
//
//   ricabench --shape scenario|sweep --seed N --seconds S --trace 0|1
//             --fixed-trials K [--timed-trials K] --work-dir DIR
//             --protocol P --nodes N --field-m M --range-m M --speed-kmh V
//             --pause-s S --mobility SPEC --pairs N --pkts-per-s R
//             --packet-bytes B --traffic SPEC --sim-s S
//             [--obs 1]                       (scenario: every obs attachment)
//             [--loads 10,20 --threads T]     (sweep: the figure grid)
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "obs/flight_recorder.hpp"
#include "workloads.hpp"

namespace {

namespace harness = rica::harness;

harness::ScenarioConfig scenario_from(const harness::Flags& flags) {
  const auto required = [&flags](const std::string& name) {
    if (!flags.has(name)) {
      throw std::invalid_argument("missing --" + name);
    }
    return flags.get(name, std::string{});
  };
  harness::ScenarioConfig cfg;
  cfg.protocol = harness::protocol_from_string(required("protocol"));
  cfg.num_nodes = std::stoul(required("nodes"));
  cfg.field_m = std::stod(required("field-m"));
  cfg.radio_range_m = std::stod(required("range-m"));
  cfg.mean_speed_kmh = std::stod(required("speed-kmh"));
  cfg.pause_s = std::stod(required("pause-s"));
  cfg.mobility = required("mobility");
  cfg.num_pairs = std::stoul(required("pairs"));
  cfg.pkts_per_s = std::stod(required("pkts-per-s"));
  cfg.packet_bytes = static_cast<std::uint16_t>(std::stoul(required("packet-bytes")));
  cfg.traffic = required("traffic");
  cfg.sim_s = std::stod(required("sim-s"));
  cfg.warmup_s = 0.0;
  cfg.seed = flags.get("seed", std::uint64_t{1});
  return cfg;
}

/// run_speed_sweep takes its population from the "paper" preset.  The
/// benchmark spells the population out, so it refuses to run if the preset
/// no longer matches: a retuned preset must not redefine the benchmark.
void require_paper_preset(const harness::ScenarioConfig& cfg) {
  const harness::ScenarioConfig preset = harness::preset_config("paper");
  if (preset.num_nodes != cfg.num_nodes || preset.field_m != cfg.field_m ||
      preset.num_pairs != cfg.num_pairs ||
      preset.radio_range_m != cfg.radio_range_m ||
      preset.packet_bytes != cfg.packet_bytes) {
    throw std::invalid_argument(
        "the 'paper' preset no longer matches the fig-sweep population; "
        "update the workload definition deliberately");
  }
}

void print_json(const perfbench::Output& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                out.metrics[i].first.c_str(), out.metrics[i].second);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const harness::Flags flags(argc, argv);
    perfbench::RunOptions opt;
    opt.seed = flags.get("seed", std::uint64_t{1});
    opt.seconds = flags.get("seconds", 10.0);
    opt.trace = flags.get("trace", 0) != 0;
    opt.fixed_trials = flags.get("fixed-trials", 1);
    if (opt.fixed_trials < 1) throw std::invalid_argument("--fixed-trials < 1");
    opt.timed_trials =
        std::min(flags.get("timed-trials", opt.fixed_trials), opt.fixed_trials);
    if (opt.timed_trials < 1) throw std::invalid_argument("--timed-trials < 1");
    const std::string shape = flags.get("shape", std::string{});
    harness::ScenarioConfig cfg = scenario_from(flags);

    perfbench::Output out;
    if (shape == "scenario") {
      const bool obs = flags.get("obs", 0) != 0;
      if (obs) {
        // Every observability attachment: the JSONL trace of all record
        // families (spans included) into the work directory, the flight
        // recorder at its default ring size, and the watchdogs.
        cfg.trace_out = flags.get("work-dir", std::string{"."}) + "/trace.jsonl";
        cfg.trace_filter = "all";
        cfg.flight_recorder = rica::obs::FlightRecorder::kDefaultCapacity;
        cfg.watchdogs = true;
      }
      out = perfbench::scenario_workload(cfg, obs, opt);
    } else if (shape == "sweep") {
      require_paper_preset(cfg);
      perfbench::SweepSpec spec;
      spec.base = cfg;
      spec.loads = flags.get_list("loads", {});
      if (spec.loads.empty()) throw std::invalid_argument("missing --loads");
      const int hw = static_cast<int>(std::thread::hardware_concurrency());
      spec.threads = std::max(1, std::min(flags.get("threads", 1), hw > 0 ? hw : 1));
      out = perfbench::sweep_workload(spec, opt);
      out.metrics.emplace_back("sweep_threads", spec.threads);
    } else {
      throw std::invalid_argument("--shape must be scenario or sweep");
    }
    for (const auto& e : out.errors) std::fprintf(stderr, "ricabench: %s\n", e.c_str());
    print_json(out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ricabench: %s\n", e.what());
    return 2;
  }
}
