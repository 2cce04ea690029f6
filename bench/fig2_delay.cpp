// Figure 2: average end-to-end delay (ms) vs mean mobile speed, for
// 10 pkt/s (a) and 20 pkt/s (b), all five protocols.
//
// Flags: --trials N --sim-time S --seed K --speeds 0,14.4,...  --paper-scale
//        --threads N (parallel sweep workers, 0 = one per core)
//        --preset paper|dense-urban|sparse-rural|large-scale
#include <exception>
#include <iostream>

#include "harness/flags.hpp"
#include "harness/sweep.hpp"

int main(int argc, char** argv) {
  using namespace rica::harness;
  try {
    const Flags flags(argc, argv);
    const BenchScale scale = bench_scale(flags, /*def_trials=*/3,
                                         /*def_sim_s=*/100.0);
    const auto speeds = flags.get_list("speeds", paper_speeds());
    flags.reject_unread();

    const auto grid = run_speed_sweep(speeds, {10.0, 20.0}, scale);
    const auto delay = [](const ScenarioResult& r) { return r.avg_delay_ms; };
    print_figure(std::cout, grid, 10.0,
                 "Figure 2(a): average end-to-end delay (ms), 10 pkt/s",
                 delay);
    print_figure(std::cout, grid, 20.0,
                 "Figure 2(b): average end-to-end delay (ms), 20 pkt/s",
                 delay);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
