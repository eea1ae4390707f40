#include "benchlib/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "support/table.hpp"

namespace pwcet::benchlib {

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kImproved: return "improved";
    case Verdict::kRegressed: return "regressed";
  }
  return "?";
}

namespace {

/// MAD of a normal sample underestimates sigma by this constant factor.
constexpr double kMadToSigma = 1.4826;
/// Multiplier on the normal-consistent MAD sigma (kMadToSigma x MAD).
constexpr double kNoiseMult = 4.0;
/// Absolute floor in nanoseconds, below which a shift is never a verdict
/// (clock resolution + scheduler jitter).
constexpr double kMinBandNs = 1000.0;

MetricDelta judge(const std::string& scenario, const std::string& metric,
                  const MetricStats& before, const MetricStats& after,
                  const DiffOptions& options) {
  MetricDelta delta;
  delta.scenario = scenario;
  delta.metric = metric;
  delta.before = before;
  delta.after = after;
  delta.delta_ns = after.median - before.median;
  delta.band_ns = std::max(
      {options.threshold * before.median,
       kNoiseMult * kMadToSigma * std::max(before.mad, after.mad),
       kMinBandNs});
  if (delta.delta_ns > delta.band_ns) {
    delta.verdict = Verdict::kRegressed;
  } else if (delta.delta_ns < -delta.band_ns) {
    delta.verdict = Verdict::kImproved;
  }
  return delta;
}

}  // namespace

BenchDiff diff_reports(const BenchReport& before, const BenchReport& after,
                       const DiffOptions& options) {
  if (before.schema != after.schema)
    throw BenchError("schema version mismatch: baseline is \"" +
                     before.schema + "\", candidate is \"" + after.schema +
                     "\" — regenerate the baseline with this build");
  if (before.schema != BenchReport::kSchema)
    throw BenchError("unsupported schema \"" + before.schema +
                     "\" (this build reads \"" +
                     std::string(BenchReport::kSchema) + "\")");

  BenchDiff diff;
  for (const auto& [key, value] : before.environment) {
    for (const auto& [other_key, other_value] : after.environment)
      if (key == other_key && value != other_value)
        diff.environment_changes.push_back(key + ": " + value + " -> " +
                                           other_value);
  }

  for (const ScenarioReport& base : before.scenarios) {
    const ScenarioReport* candidate = after.find(base.name);
    if (candidate == nullptr) {
      diff.removed_scenarios.push_back(base.name);
      continue;
    }
    for (const auto& [metric, stats] : base.stats) {
      const auto it = candidate->stats.find(metric);
      if (it == candidate->stats.end()) {
        diff.removed_metrics.push_back(base.name + "/" + metric);
        continue;
      }
      diff.deltas.push_back(
          judge(base.name, metric, stats, it->second, options));
    }
    for (const auto& [metric, stats] : candidate->stats) {
      (void)stats;
      if (base.stats.find(metric) == base.stats.end())
        diff.added_metrics.push_back(base.name + "/" + metric);
    }
  }
  for (const ScenarioReport& candidate : after.scenarios)
    if (before.find(candidate.name) == nullptr)
      diff.added_scenarios.push_back(candidate.name);
  return diff;
}

namespace {

std::string fmt_ms(double ns) { return fmt_double(ns / 1e6, 3); }

std::string fmt_delta_percent(const MetricDelta& delta) {
  if (delta.before.median <= 0.0) return "-";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%+.1f%%",
                100.0 * delta.delta_ns / delta.before.median);
  return buffer;
}

}  // namespace

void render_diff(const BenchDiff& diff, const DiffOptions& options,
                 std::ostream& out) {
  out << "bench diff (threshold " << fmt_double(100.0 * options.threshold, 0)
      << "%, noise band " << fmt_double(kNoiseMult, 1)
      << " x MAD sigma, floor " << fmt_double(kMinBandNs / 1e6, 3)
      << " ms)\n";

  TextTable table({"scenario", "metric", "old ms", "new ms", "delta",
                   "band ms", "verdict"});
  for (const MetricDelta& delta : diff.deltas)
    table.add_row({delta.scenario, delta.metric, fmt_ms(delta.before.median),
                   fmt_ms(delta.after.median), fmt_delta_percent(delta),
                   fmt_ms(delta.band_ns), verdict_name(delta.verdict)});
  out << table.to_string();

  for (const std::string& change : diff.environment_changes)
    out << "note: environment differs — " << change << "\n";
  for (const std::string& name : diff.added_scenarios)
    out << "note: scenario added (no baseline): " << name << "\n";
  for (const std::string& name : diff.removed_scenarios)
    out << "note: scenario removed (baseline only): " << name << "\n";
  for (const std::string& name : diff.added_metrics)
    out << "note: metric added (no baseline): " << name << "\n";
  for (const std::string& name : diff.removed_metrics)
    out << "note: metric removed (baseline only): " << name << "\n";

  out << "verdict: " << diff.count(Verdict::kRegressed) << " regressed, "
      << diff.count(Verdict::kImproved) << " improved, "
      << diff.count(Verdict::kUnchanged) << " unchanged\n";
  for (const MetricDelta& delta : diff.deltas)
    if (delta.verdict == Verdict::kRegressed)
      out << "regressed: " << delta.scenario << "/" << delta.metric << " ("
          << fmt_delta_percent(delta) << ", band " << fmt_ms(delta.band_ns)
          << " ms)\n";
}

}  // namespace pwcet::benchlib
