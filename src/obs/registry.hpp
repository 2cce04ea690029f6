// Typed metrics registry: the single place a run's scalar observability
// lives.
//
// Before this layer, every kernel/pool/table statistic was plumbed by hand
// through four files (accessor on the owning object → copy in run_scenario
// → field in MetricsSummary → fold rule in average()).  The registry
// collapses that to one registration: a layer registers a counter or a
// gauge (eagerly owned, or lazily via a sampling callback), and the harness
// snapshots the whole registry into the summary with the fold semantics
// carried alongside the value:
//
//   * kCounter — additive work (events executed, batch fires, drops); trial
//     aggregation sums.
//   * kGauge   — level / high-water readings (pending events, pool
//     occupancy, table load); trial aggregation takes the maximum.
//
// Values are doubles so one snapshot type covers both integer counters and
// fractional gauges; integer counters in the simulated ranges (< 2^53) are
// exact.  Registration order is irrelevant — snapshot() returns samples
// sorted by name, so serialized output is stable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rica::obs {

enum class StatKind : std::uint8_t {
  kCounter = 0,  ///< additive across trials
  kGauge = 1,    ///< max across trials
};

/// One named value captured by Registry::snapshot().
struct Sample {
  std::string name;
  StatKind kind = StatKind::kCounter;
  double value = 0.0;

  friend bool operator==(const Sample&, const Sample&) = default;
};

/// An eagerly owned monotonic counter.
class Counter {
 public:
  void add(std::uint64_t by = 1) { value_ += by; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// An eagerly owned level gauge that can also track its own high water.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Registry {
 public:
  /// Registers an owned counter under `name` and returns it; stable address
  /// for the registry's lifetime.  Re-registering a name replaces the
  /// previous entry (last writer wins).
  Counter& counter(const std::string& name);
  /// Registers an owned gauge under `name` and returns it.
  Gauge& gauge(const std::string& name);

  /// Registers a counter whose value is read lazily at snapshot time —
  /// for statistics an existing object already tracks (e.g. the
  /// Simulator's events_executed).
  void counter_fn(const std::string& name, std::function<double()> fn);
  /// Registers a lazily read gauge.
  void gauge_fn(const std::string& name, std::function<double()> fn);

  /// Reads every registered entry; result is sorted by name.
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Reads one entry by name; 0.0 when absent.
  [[nodiscard]] double read(const std::string& name) const;

 private:
  struct Entry {
    StatKind kind = StatKind::kCounter;
    // Exactly one of the three is active per entry.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::function<double()> fn;
  };
  std::map<std::string, Entry> entries_;  // sorted: stable snapshots
};

/// Folds a trial's samples into an accumulated map according to each
/// sample's kind (sum counters, max gauges).  Used by the multi-trial
/// harness; the map overload takes a MetricsSummary::stats snapshot.
void fold_samples(std::map<std::string, Sample>& into,
                  const std::vector<Sample>& trial);
void fold_samples(std::map<std::string, Sample>& into,
                  const std::map<std::string, Sample>& trial);

}  // namespace rica::obs
