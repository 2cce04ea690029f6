// Host-speed calibration for the benchmark's timings.
//
// The benchmark runs on shared virtual machines whose speed drifts by tens
// of percent over minutes, as neighbours load the shared caches and memory.
// A timing taken at one moment and compared with one taken minutes later
// measures that drift as much as the program.  So every timed unit of work
// is paired with a run of a fixed reference kernel taken just before it,
// and the timing is rescaled to the host speed at which the kernel takes
// kReferenceNominalS.  The kernel is code of the benchmark's own: it is an
// event queue and a hash map driven by a random stream, the shape of the
// simulator's kernel loop, so it slows down under the same contention.
// Nothing under src/ runs in it, so a change to the simulator moves the
// rescaled timings and leaves the reference alone.
#pragma once

namespace perfbench {

/// The reference kernel's wall time on the quiet 2 GHz Xeon vCPU the
/// benchmark was defined on.  Only a scale: rescaled timings read as wall
/// times on a host where the kernel takes this long.
inline constexpr double kReferenceNominalS = 0.010;

/// Wall time of one run of the reference kernel on this thread, seconds.
[[nodiscard]] double reference_s();

/// Wall time of the reference kernel run once on each of `threads` threads
/// at the same time, seconds: the calibration for work spread over a pool.
[[nodiscard]] double reference_s(int threads);

/// `wall_s` rescaled to the nominal host speed, given the reference
/// kernel's wall time `ref_s` measured beside it.
[[nodiscard]] inline double rescaled(double wall_s, double ref_s) {
  return wall_s * kReferenceNominalS / ref_s;
}

}  // namespace perfbench
