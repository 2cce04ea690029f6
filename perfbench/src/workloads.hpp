// The benchmark's two workload shapes: repeated single-scenario trials
// through harness::run_scenario, and the figure grid through
// harness::run_speed_sweep.  Each has an untraced form (end-to-end metrics)
// and a traced form (per-layer metrics, see layers.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring budget; at least `fixed_trials` run
  bool trace = false;
  /// Trials (cells: sweeps) whose results are reported.  Fixed per workload
  /// so simulated results and work counts depend on the seed only, never on
  /// how many trials the host managed to run in `seconds`.
  int fixed_trials = 1;
  /// Untraced single-scenario runs: how many of the reported trials make a
  /// timed round (at most `fixed_trials`).  The first round runs every
  /// reported trial; later rounds repeat only the timed ones.
  int timed_trials = 1;
};

struct Output {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< trials, or cells on the sweep
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> errors;  ///< one line each, for stderr
};

/// Trials of `base` with seeds harness::trial_seed(base, t).  `obs` runs
/// each trial a second time without observability and requires equal
/// stream hashes.
[[nodiscard]] Output scenario_workload(const rica::harness::ScenarioConfig& base,
                                       bool obs, const RunOptions& opt);

/// The speed x load x protocol grid at `base`'s population, one trial per
/// cell, on `threads` sweep workers.
struct SweepSpec {
  rica::harness::ScenarioConfig base;  ///< population, sim_s, pause
  std::vector<double> loads;
  int threads = 1;
};
[[nodiscard]] Output sweep_workload(const SweepSpec& spec,
                                    const RunOptions& opt);

}  // namespace perfbench
