/// \file
/// Versioned BenchReport artifact: the JSON document `pwcet bench run`
/// writes and `pwcet bench diff` consumes.
///
/// Schema (`pwcet-bench-report-v1`):
/// ```json
/// {
///   "schema": "pwcet-bench-report-v1",
///   "environment": {"threads": "1", "build_type": "release", ...},
///   "scenarios": [
///     {"name": "campaign.geometry_sweep.cold",
///      "samples": [
///        {"wall_ns": 2693714000,
///         "metrics": {"phase.convolve": 2375976000, ...},
///         "counters": {"engine.jobs": 60, ...}}, ...],
///      "stats": {
///        "wall_ns": {"count": 5, "median": 2693714000.0, "min": ...,
///                    "p90": ..., "mad": ...}, ...}}
///   ]
/// }
/// ```
/// Every sample embeds its own MetricsRegistry snapshot (per-phase
/// nanosecond totals + store/engine counters), so a diff can attribute a
/// regression to a phase, not just to a scenario. The `stats` block is
/// derived (median/min/p90 location, MAD dispersion) and is what the
/// diff's noise-aware verdicts read. The document carries no timestamps
/// or hostnames: two runs under identical conditions produce
/// structurally comparable artifacts.
#pragma once

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/harness.hpp"

namespace pwcet::benchlib {

/// Error loading or interpreting a BenchReport artifact. what() is a
/// ready-to-print diagnostic naming the file and problem.
class BenchError : public std::runtime_error {
 public:
  explicit BenchError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Robust summary of one metric's samples: median/min/p90 location plus
/// MAD (median absolute deviation) dispersion. MAD, not stddev — one
/// preempted repetition must not widen the noise band enough to hide a
/// real regression (nor shrink a real one into "noise").
struct MetricStats {
  std::size_t count = 0;
  double median = 0.0;
  double min = 0.0;
  double p90 = 0.0;
  double mad = 0.0;
};

/// Computes MetricStats over raw samples (empty input -> all zeros).
MetricStats compute_metric_stats(const std::vector<double>& samples);

/// One scenario's samples plus derived per-metric statistics. `stats`
/// always contains "wall_ns" and one entry per metric present in any
/// sample (computed over the samples that carry it).
struct ScenarioReport {
  std::string name;
  std::vector<RepetitionSample> samples;
  std::map<std::string, MetricStats> stats;
};

/// Builds a ScenarioReport from harness samples (derives `stats`).
ScenarioReport summarize_scenario(ScenarioSamples samples);

struct BenchReport {
  static constexpr const char* kSchema = "pwcet-bench-report-v1";

  std::string schema = kSchema;
  /// Measurement-environment capture, insertion-ordered string pairs:
  /// threads, hardware_threads, build type, warmup, repetitions. Diffs
  /// warn when the two sides differ.
  std::vector<std::pair<std::string, std::string>> environment;
  std::vector<ScenarioReport> scenarios;

  const ScenarioReport* find(const std::string& name) const {
    for (const ScenarioReport& scenario : scenarios)
      if (scenario.name == name) return &scenario;
    return nullptr;
  }
};

/// Serializes the report as its versioned JSON document.
std::string bench_report_json(const BenchReport& report);

/// Writes bench_report_json to `path`; false on I/O failure.
bool write_bench_report(const BenchReport& report, const std::string& path);

/// Loads a BenchReport artifact via support/json_doc. Accepts any schema
/// string (the diff enforces version agreement) but requires the
/// structural shape above.
/// \throws BenchError on unreadable files, malformed JSON or wrong shape.
BenchReport load_bench_report(const std::string& path);

}  // namespace pwcet::benchlib
