/// \file
/// Differential comparison of two BenchReport artifacts with noise-aware
/// verdicts — the library behind `pwcet bench diff` and the CI
/// perf-regression gate.
///
/// Scenarios are aligned by name, metrics within a scenario by metric
/// name. For each aligned metric the verdict compares the median shift
/// against a noise band that is the *widest* of three guards:
///
///   band = max( threshold x before.median,       // relative floor
///               4 x 1.4826 x max(MAD_a, MAD_b),  // dispersion
///               1000 ns )                        // clock resolution
///
/// delta = after.median - before.median; delta > band is `regressed`,
/// delta < -band is `improved`, anything inside the band is `unchanged`.
/// The MAD term widens the band automatically on noisy hosts (the
/// committed BENCH history shows scheduler noise dominating 1-hardware-
/// thread boxes), while the relative threshold keeps tiny absolute
/// wobbles on microsecond metrics from reading as regressions.
///
/// Scenario/metric additions and removals are reported but are not
/// regressions; a schema-version mismatch between the two artifacts is a
/// hard error (BenchError) — verdicts across schemas would be
/// meaningless.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "benchlib/report.hpp"

namespace pwcet::benchlib {

struct DiffOptions {
  /// Relative regression threshold against the baseline median
  /// (`--threshold`); 0.25 = a metric must move 25% to be a verdict.
  double threshold = 0.25;
};

enum class Verdict { kUnchanged, kImproved, kRegressed };

const char* verdict_name(Verdict verdict);

/// One aligned (scenario, metric) comparison.
struct MetricDelta {
  std::string scenario;
  std::string metric;
  MetricStats before;
  MetricStats after;
  double delta_ns = 0.0;  ///< after.median - before.median
  double band_ns = 0.0;   ///< noise band the delta was judged against
  Verdict verdict = Verdict::kUnchanged;
};

struct BenchDiff {
  std::vector<MetricDelta> deltas;  ///< aligned metrics, report order
  std::vector<std::string> added_scenarios;    ///< only in the new report
  std::vector<std::string> removed_scenarios;  ///< only in the baseline
  /// Metrics present on one side only, as "scenario/metric".
  std::vector<std::string> added_metrics;
  std::vector<std::string> removed_metrics;
  /// Environment keys whose values differ, as "key: old -> new".
  std::vector<std::string> environment_changes;

  std::size_t count(Verdict verdict) const {
    std::size_t n = 0;
    for (const MetricDelta& delta : deltas) n += delta.verdict == verdict;
    return n;
  }
  bool has_regression() const { return count(Verdict::kRegressed) > 0; }
};

/// Aligns and judges `after` against the `before` baseline.
/// \throws BenchError when the two artifacts carry different schema
/// versions (their stats are not comparable).
BenchDiff diff_reports(const BenchReport& before, const BenchReport& after,
                       const DiffOptions& options = {});

/// Human-readable rendering: per-metric table (medians in ms, delta %,
/// noise band, verdict), alignment notes, and a one-line summary naming
/// every regressed scenario/metric.
void render_diff(const BenchDiff& diff, const DiffOptions& options,
                 std::ostream& out);

}  // namespace pwcet::benchlib
