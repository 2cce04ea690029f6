// Figure 5: route quality of all protocols at 72 km/h mean speed:
//   (a) average link throughput (kbps) of the links delivered packets used,
//   (b) average number of hops of the delivered packets' routes.
// The paper states 72 km/h; the load is unstated — we use 10 pkt/s
// (EXPERIMENTS.md records this assumption).
#include <exception>
#include <iostream>

#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"

int main(int argc, char** argv) {
  using namespace rica::harness;
  try {
    const Flags flags(argc, argv);
    const BenchScale scale = bench_scale(flags, /*def_trials=*/3,
                                         /*def_sim_s=*/100.0);
    const double speed = flags.get("mean-speed", 72.0);
    const double load = flags.get("rate", 10.0);
    flags.reject_unread();

    Table table({"protocol", "avg_link_throughput_kbps", "avg_hops"});
    for (const auto proto : kAllProtocols) {
      ScenarioConfig cfg = preset_config(scale.preset);
      cfg.protocol = proto;
      cfg.mean_speed_kmh = speed;
      cfg.pkts_per_s = load;
      cfg.sim_s = scale.sim_s;
      cfg.seed = scale.seed;
      std::cerr << "[fig5] " << to_string(proto) << "...\n";
      const auto r = run_trials(cfg, scale.trials);
      table.add_row({std::string(to_string(proto)),
                     fmt(r.avg_link_tput_kbps, 1), fmt(r.avg_hops, 2)});
    }
    std::cout << "Figure 5: route quality at " << fmt(speed, 0)
              << " km/h mean speed, " << fmt(load, 0) << " pkt/s\n";
    table.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
