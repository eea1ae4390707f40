/// \file
/// Statistics-driven benchmark harness: configurable warmup + repetition
/// measurement of a scenario body on the monotonic clock, with a
/// MetricsRegistry snapshot captured per repetition so every sample
/// carries its own per-phase breakdown and store counters.
///
/// The harness is the *active* measurement layer on top of the passive
/// src/obs/ collectors: it arms the process-wide MetricsRegistry around
/// each timed repetition (cleared between repetitions, so samples do not
/// bleed into each other) and disarms + clears it afterwards — like every
/// obs consumer it is observation-only, so campaign reports stay
/// byte-identical with benchlib linked in or actively measuring.
///
/// Sampling discipline: `warmup` repetitions run first and are discarded
/// (page cache, allocator, CPU-frequency settling), then `repetitions`
/// samples are recorded. Downstream statistics are median/min/p90 with
/// MAD dispersion (benchlib/report.hpp) — robust location and spread, so
/// one scheduler preemption cannot masquerade as a perf regression.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace pwcet::benchlib {

/// Harness knobs for one `run_scenario` call.
struct BenchOptions {
  /// Discarded settling repetitions before sampling starts.
  std::size_t warmup = 1;
  /// Recorded repetitions; every derived statistic is over these.
  std::size_t repetitions = 5;
};

/// One recorded repetition: the body's wall time, the per-metric
/// nanosecond breakdown (histogram totals from the armed MetricsRegistry
/// — phase sums, queue waits), and the registry's non-zero counters
/// (store hits/misses, job counts).
struct RepetitionSample {
  std::uint64_t wall_ns = 0;
  std::vector<std::pair<std::string, std::uint64_t>> metrics;   ///< sorted
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< sorted
};

/// All samples of one measured scenario, in recording order.
struct ScenarioSamples {
  std::string name;
  std::vector<RepetitionSample> samples;
};

/// Runs `body` warmup + repetitions times and returns the recorded
/// samples. The MetricsRegistry is cleared and armed per repetition, and
/// left disabled and empty on return (whatever its prior state).
/// Exceptions from the body propagate — scenarios use them to fail loudly
/// when a determinism check breaks.
ScenarioSamples run_scenario(const std::string& name,
                             const BenchOptions& options,
                             const std::function<void()>& body);

}  // namespace pwcet::benchlib
