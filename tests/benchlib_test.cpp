// Tests for src/benchlib — the statistical benchmark harness behind
// `pwcet bench`:
//
//  - robust statistics (median/min/p90/MAD) on known samples;
//  - harness discipline: warmup repetitions are discarded, samples carry
//    the armed MetricsRegistry's data, and the --inject-slowdown self-test
//    knob scales exactly the named metric;
//  - BenchReport JSON round-trip through a file;
//  - diff verdict golden pairs: regression, improvement, within-noise,
//    scenario added/removed, schema-version mismatch;
//  - the observation-only contract: running a benchlib campaign scenario
//    changes no campaign report bytes and leaves the registry disabled.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchlib/diff.hpp"
#include "benchlib/harness.hpp"
#include "benchlib/report.hpp"
#include "benchlib/scenario.hpp"
#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "engine/spec_io.hpp"
#include "obs/metrics.hpp"
#include "store/analysis_store.hpp"
#include "support/stats.hpp"

namespace pwcet::benchlib {
namespace {

// ---- statistics -----------------------------------------------------------

TEST(BenchStats, ComputeMetricStatsKnownValues) {
  const MetricStats stats =
      compute_metric_stats({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(stats.count, 5u);
  EXPECT_DOUBLE_EQ(stats.median, 3.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  // empirical_quantile semantics (linear interpolation over sorted order).
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(stats.p90, pwcet::empirical_quantile(sorted, 0.9));
  EXPECT_DOUBLE_EQ(stats.mad, 1.0);
}

TEST(BenchStats, ComputeMetricStatsEmptyIsAllZero) {
  const MetricStats stats = compute_metric_stats({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.median, 0.0);
  EXPECT_DOUBLE_EQ(stats.mad, 0.0);
}

// ---- harness --------------------------------------------------------------

TEST(BenchHarness, WarmupRepetitionsRunButAreDiscarded) {
  BenchOptions options;
  options.warmup = 2;
  options.repetitions = 3;
  std::size_t calls = 0;
  const ScenarioSamples samples =
      run_scenario("probe", options, [&calls] { ++calls; });
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(samples.samples.size(), 3u);
  EXPECT_EQ(samples.name, "probe");
}

TEST(BenchHarness, ArmedRegistryMetricsAndCountersAreCaptured) {
  BenchOptions options;
  options.warmup = 1;
  options.repetitions = 2;
  const ScenarioSamples samples =
      run_scenario("probe", options, [] {
        obs::MetricsRegistry::instance().observe_ns("probe.phase", 4096);
        obs::MetricsRegistry::instance().add("probe.count", 3);
      });
  ASSERT_EQ(samples.samples.size(), 2u);
  for (const RepetitionSample& sample : samples.samples) {
    ASSERT_EQ(sample.metrics.size(), 1u);  // cleared between repetitions
    EXPECT_EQ(sample.metrics[0].first, "probe.phase");
    EXPECT_EQ(sample.metrics[0].second, 4096u);
    ASSERT_EQ(sample.counters.size(), 1u);
    EXPECT_EQ(sample.counters[0].first, "probe.count");
    EXPECT_EQ(sample.counters[0].second, 3u);
  }
  // Left disabled and zeroed for whoever runs next (registered names
  // persist; their values must not).
  EXPECT_FALSE(obs::MetricsRegistry::instance().enabled());
  for (const auto& [name, value] : obs::MetricsRegistry::instance().counters())
    EXPECT_EQ(value, 0u) << name;
}

TEST(BenchHarness, InjectedSlowdownScalesExactlyTheNamedMetric) {
  BenchOptions options;
  options.warmup = 0;
  options.repetitions = 1;
  options.inject_slowdown = {{"probe.cold", 2.0}};
  const ScenarioSamples samples = run_scenario("probe", options, [] {
    obs::MetricsRegistry::instance().observe_ns("probe.cold", 1000);
    obs::MetricsRegistry::instance().observe_ns("probe.warm", 1000);
  });
  const auto& metrics = samples.samples.at(0).metrics;
  ASSERT_EQ(metrics.size(), 2u);  // sorted: probe.cold, probe.warm
  EXPECT_EQ(metrics[0].second, 2000u);  // probe.cold doubled
  EXPECT_EQ(metrics[1].second, 1000u);  // probe.warm untouched
}

TEST(BenchHarness, BodyExceptionsPropagateAndDisarmTheRegistry) {
  BenchOptions options;
  options.warmup = 0;
  options.repetitions = 1;
  EXPECT_THROW(
      run_scenario("probe", options, [] { throw std::runtime_error("x"); }),
      std::runtime_error);
  EXPECT_FALSE(obs::MetricsRegistry::instance().enabled());
}

// ---- report round-trip ----------------------------------------------------

BenchReport tiny_report(double wall_median, double wall_mad) {
  BenchReport report;
  report.environment = {{"threads", "1"}, {"build_type", "release"}};
  ScenarioReport scenario;
  scenario.name = "probe";
  RepetitionSample sample;
  sample.wall_ns = static_cast<std::uint64_t>(wall_median);
  sample.metrics = {{"phase.convolve", 500}};
  sample.counters = {{"engine.jobs", 60}};
  scenario.samples.push_back(sample);
  MetricStats wall;
  wall.count = 5;
  wall.median = wall_median;
  wall.min = wall_median * 0.9;
  wall.p90 = wall_median * 1.1;
  wall.mad = wall_mad;
  scenario.stats["wall_ns"] = wall;
  report.scenarios.push_back(std::move(scenario));
  return report;
}

TEST(BenchReportIo, JsonRoundTripsThroughAFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pwcet_bench_report_" + std::to_string(::getpid()) + ".json"))
          .string();
  const BenchReport original = tiny_report(1e6, 1e3);
  ASSERT_TRUE(write_bench_report(original, path));

  const BenchReport loaded = load_bench_report(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.schema, BenchReport::kSchema);
  EXPECT_EQ(loaded.environment, original.environment);
  ASSERT_EQ(loaded.scenarios.size(), 1u);
  const ScenarioReport& scenario = loaded.scenarios[0];
  EXPECT_EQ(scenario.name, "probe");
  ASSERT_EQ(scenario.samples.size(), 1u);
  EXPECT_EQ(scenario.samples[0].wall_ns, 1000000u);
  EXPECT_EQ(scenario.samples[0].metrics, original.scenarios[0].samples[0].metrics);
  EXPECT_EQ(scenario.samples[0].counters,
            original.scenarios[0].samples[0].counters);
  const MetricStats& wall = scenario.stats.at("wall_ns");
  EXPECT_EQ(wall.count, 5u);
  EXPECT_DOUBLE_EQ(wall.median, 1e6);
  EXPECT_DOUBLE_EQ(wall.mad, 1e3);
}

TEST(BenchReportIo, LoaderRejectsWrongShapesWithDiagnostics) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string path =
      dir + "/pwcet_bench_bad_" + std::to_string(::getpid()) + ".json";
  const auto write_text = [&path](const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  };
  write_text("[1,2,3]");
  EXPECT_THROW(load_bench_report(path), BenchError);
  write_text("{\"schema\":\"x\"}");  // missing environment/scenarios
  EXPECT_THROW(load_bench_report(path), BenchError);
  write_text("not json at all");
  EXPECT_THROW(load_bench_report(path), BenchError);
  std::filesystem::remove(path);
  EXPECT_THROW(load_bench_report(path), BenchError);  // unreadable
}

// ---- diff verdicts --------------------------------------------------------

TEST(BenchDiffing, FlagsARegressionBeyondEveryGuard) {
  // 2x median shift, tiny MAD: beyond the 25% relative guard, the MAD
  // guard and the absolute floor. Must regress, naming the metric.
  const BenchReport before = tiny_report(1e6, 1e3);
  const BenchReport after = tiny_report(2e6, 1e3);
  const BenchDiff diff = diff_reports(before, after, {});
  ASSERT_FALSE(diff.deltas.empty());
  EXPECT_TRUE(diff.has_regression());
  EXPECT_EQ(diff.count(Verdict::kRegressed), 1u);
  const MetricDelta& delta = diff.deltas[0];
  EXPECT_EQ(delta.scenario, "probe");
  EXPECT_EQ(delta.metric, "wall_ns");
  EXPECT_EQ(delta.verdict, Verdict::kRegressed);

  std::ostringstream rendered;
  render_diff(diff, {}, rendered);
  EXPECT_NE(rendered.str().find("regressed: probe/wall_ns"),
            std::string::npos);
}

TEST(BenchDiffing, FlagsAnImprovementSymmetrically) {
  const BenchDiff diff =
      diff_reports(tiny_report(2e6, 1e3), tiny_report(1e6, 1e3), {});
  EXPECT_FALSE(diff.has_regression());
  EXPECT_EQ(diff.count(Verdict::kImproved), 1u);
}

TEST(BenchDiffing, ShiftWithinTheNoiseBandIsUnchanged) {
  // +10% shift under the default 25% relative threshold.
  const BenchDiff relative =
      diff_reports(tiny_report(1e6, 1e3), tiny_report(1.1e6, 1e3), {});
  EXPECT_EQ(relative.count(Verdict::kUnchanged), 1u);

  // +40% shift but the dispersion is huge: the MAD guard
  // (4 x 1.4826 x 1e6) swallows it — noisy hosts must not cry wolf.
  const BenchDiff noisy =
      diff_reports(tiny_report(1e6, 1e6), tiny_report(1.4e6, 1e6), {});
  EXPECT_EQ(noisy.count(Verdict::kUnchanged), 1u);

  // A tighter --threshold flips the relative case to regressed.
  DiffOptions tight;
  tight.threshold = 0.05;
  const BenchDiff flipped =
      diff_reports(tiny_report(1e6, 1e3), tiny_report(1.1e6, 1e3), tight);
  EXPECT_TRUE(flipped.has_regression());
}

TEST(BenchDiffing, TinyAbsoluteShiftsSitUnderTheFloor) {
  // 3x relative shift on a sub-microsecond metric: under the 1000 ns
  // absolute floor, so not a verdict (clock granularity noise).
  const BenchDiff diff =
      diff_reports(tiny_report(300, 5), tiny_report(900, 5), {});
  EXPECT_EQ(diff.count(Verdict::kUnchanged), 1u);
}

TEST(BenchDiffing, ScenarioAddedAndRemovedAreNotesNotRegressions) {
  BenchReport before = tiny_report(1e6, 1e3);
  BenchReport after = tiny_report(1e6, 1e3);
  after.scenarios[0].name = "other";
  const BenchDiff diff = diff_reports(before, after, {});
  EXPECT_TRUE(diff.deltas.empty());
  ASSERT_EQ(diff.removed_scenarios.size(), 1u);
  EXPECT_EQ(diff.removed_scenarios[0], "probe");
  ASSERT_EQ(diff.added_scenarios.size(), 1u);
  EXPECT_EQ(diff.added_scenarios[0], "other");
  EXPECT_FALSE(diff.has_regression());
}

TEST(BenchDiffing, SchemaMismatchIsAHardError) {
  BenchReport before = tiny_report(1e6, 1e3);
  BenchReport after = tiny_report(1e6, 1e3);
  after.schema = "pwcet-bench-report-v0";
  EXPECT_THROW(diff_reports(before, after, {}), BenchError);
  before.schema = "pwcet-bench-report-v0";
  // Two artifacts agreeing on an unknown schema are just as meaningless.
  EXPECT_THROW(diff_reports(before, after, {}), BenchError);
}

TEST(BenchDiffing, EnvironmentChangesAreReported) {
  BenchReport before = tiny_report(1e6, 1e3);
  BenchReport after = tiny_report(1e6, 1e3);
  after.environment[0].second = "4";
  const BenchDiff diff = diff_reports(before, after, {});
  ASSERT_EQ(diff.environment_changes.size(), 1u);
  EXPECT_EQ(diff.environment_changes[0], "threads: 1 -> 4");
}

// ---- scenarios + observation-only contract --------------------------------

TEST(BenchScenarios, BuiltinsAreNamedAndDescribed) {
  const std::vector<Scenario> scenarios = builtin_scenarios();
  ASSERT_FALSE(scenarios.empty());
  bool has_campaign = false, has_micro = false;
  for (const Scenario& scenario : scenarios) {
    EXPECT_FALSE(scenario.name.empty());
    EXPECT_FALSE(scenario.description.empty());
    EXPECT_TRUE(static_cast<bool>(scenario.body));
    has_campaign |= scenario.name.rfind("campaign.", 0) == 0;
    has_micro |= scenario.name.rfind("micro.", 0) == 0;
  }
  EXPECT_TRUE(has_campaign);
  EXPECT_TRUE(has_micro);
}

TEST(BenchScenarios, MeasuringACampaignIsObservationOnly) {
  // Reference report without benchlib anywhere near the pipeline.
  CampaignSpec spec;
  spec.tasks = {"fibcall"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone};
  RunnerOptions options;
  options.threads = 1;
  options.store.enabled = false;
  const std::string reference = report_csv(run_campaign(spec, options));

  // The same campaign run *inside* the harness with metrics armed.
  BenchOptions bench;
  bench.warmup = 0;
  bench.repetitions = 1;
  std::string measured;
  run_scenario("obs.check", bench, [&] {
    RunnerOptions inner;
    inner.threads = 1;
    inner.store.enabled = false;
    measured = report_csv(run_campaign(spec, inner));
  });
  EXPECT_EQ(measured, reference);

  // And a plain run afterwards is byte-identical too — the harness left
  // no collector armed.
  EXPECT_FALSE(obs::MetricsRegistry::instance().enabled());
  EXPECT_EQ(report_csv(run_campaign(spec, options)), reference);
}

// ---- scenario specs stay in lockstep with the shipped JSON -----------------

// The campaign scenarios rebuild their specs in C++ (so `pwcet bench`
// needs no file paths); these pins keep them byte-equivalent to the
// shipped JSON specs the CLI and tables use — a drift would silently make
// the bench measure a different campaign than the one CI diffs.
TEST(BenchScenarios, GeometrySweepSpecMatchesShippedJson) {
  const SpecDocument doc =
      load_spec(std::string(PWCET_SPECS_DIR) + "/geometry_sweep.json");
  CampaignSpec programmatic = geometry_sweep_spec();
  // The shipped spec carries two extra tasks and the table's exceedance
  // target; the scenario trims tasks for bench wall-clock. Geometry /
  // pfail / mechanism axes must match exactly.
  EXPECT_EQ(programmatic.geometries.size(), doc.spec.geometries.size());
  programmatic.tasks = doc.spec.tasks;
  programmatic.target_exceedance = doc.spec.target_exceedance;
  EXPECT_EQ(campaign_spec_key(programmatic), campaign_spec_key(doc.spec));
}

TEST(BenchScenarios, PfailSweepSpecMatchesShippedJson) {
  const SpecDocument doc =
      load_spec(std::string(PWCET_SPECS_DIR) + "/pfail_sweep.json");
  EXPECT_EQ(campaign_spec_key(pfail_sweep_spec()),
            campaign_spec_key(doc.spec));
}

}  // namespace
}  // namespace pwcet::benchlib
