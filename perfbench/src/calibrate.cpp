#include "calibrate.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Events popped per kernel run, and the sizes of the pending set and the
/// key space; fixed, so every run does the same work.
constexpr int kEvents = 60'000;
constexpr int kPending = 2'000;
constexpr std::uint64_t kKeys = 20'000;

/// Discrete-event loop: pop the earliest event, update a per-key record in
/// a hash map, schedule a successor an exponential delay later.  Returns a
/// checksum so the compiler cannot drop the work.
std::uint64_t kernel() {
  std::mt19937_64 rng(0x5eed);
  std::exponential_distribution<double> gap(1.0);
  using Event = std::pair<double, std::uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> pending;
  std::unordered_map<std::uint64_t, double> records;
  for (int i = 0; i < kPending; ++i) pending.emplace(gap(rng), rng() % kKeys);
  std::uint64_t sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    const Event e = pending.top();
    pending.pop();
    double& r = records[e.second];
    r += e.first;
    sum += static_cast<std::uint64_t>(r);
    pending.emplace(e.first + gap(rng), rng() % kKeys);
  }
  return sum;
}

std::atomic<std::uint64_t> g_sink{0};

double timed_kernel() {
  const auto t0 = Clock::now();
  g_sink.fetch_add(kernel(), std::memory_order_relaxed);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

double reference_s() { return timed_kernel(); }

double reference_s(int threads) {
  if (threads <= 1) return timed_kernel();
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back([] { (void)timed_kernel(); });
  (void)timed_kernel();
  for (auto& th : pool) th.join();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
