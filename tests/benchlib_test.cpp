// Tests for src/benchlib — the statistical benchmark harness behind
// `pwcet bench`:
//
//  - robust statistics (median/min/p90/MAD) on known samples;
//  - harness discipline: warmup repetitions are discarded and samples
//    carry the armed MetricsRegistry's data;
//  - BenchReport JSON round-trip through a file;
//  - diff verdict golden pairs: regression, improvement, within-noise,
//    scenario added/removed, schema-version mismatch, and the CI gate's
//    doctored copy (one metric doubled) flagged on that metric alone;
//  - the campaign scenarios of spec files: three per stem, each on its
//    `pwcet run` path, none touching PWCET_CACHE_DIR;
//  - the observation-only contract: running a benchlib campaign scenario
//    changes no campaign report bytes and leaves the registry disabled.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchlib/diff.hpp"
#include "benchlib/harness.hpp"
#include "benchlib/report.hpp"
#include "benchlib/scenario.hpp"
#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "obs/metrics.hpp"
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

TEST(BenchDiffing, ADoctoredCopyIsFlaggedOnItsDoubledMetricAlone) {
  // The CI gate's self-test: a copy of a measured report with one
  // metric's samples and stats doubled, as a 2x slowdown in that phase
  // would record them, must regress on exactly that scenario/metric.
  BenchOptions options;
  options.warmup = 0;
  options.repetitions = 3;
  const BenchReport measured = [&] {
    BenchReport report;
    report.scenarios.push_back(
        summarize_scenario(run_scenario("probe", options, [] {
          obs::MetricsRegistry::instance().observe_ns("phase.cold", 1000000);
          obs::MetricsRegistry::instance().observe_ns("phase.warm", 1000000);
        })));
    return report;
  }();
  BenchReport doctored = measured;
  ScenarioReport& scenario = doctored.scenarios[0];
  for (RepetitionSample& sample : scenario.samples)
    for (auto& [metric, ns] : sample.metrics)
      if (metric == "phase.cold") ns *= 2;
  MetricStats& stats = scenario.stats.at("phase.cold");
  for (double* value : {&stats.median, &stats.min, &stats.p90, &stats.mad})
    *value *= 2;

  const BenchDiff diff = diff_reports(measured, doctored, {});
  EXPECT_EQ(diff.count(Verdict::kRegressed), 1u);
  std::ostringstream rendered;
  render_diff(diff, {}, rendered);
  EXPECT_NE(rendered.str().find("regressed: probe/phase.cold"),
            std::string::npos)
      << rendered.str();
  EXPECT_EQ(rendered.str().find("regressed: probe/phase.warm"),
            std::string::npos);
}

// ---- scenarios + observation-only contract --------------------------------

/// A spec file of 3 cheap SPTA jobs under a temp directory, named
/// `<stem>.json`, removed with the fixture.
class SpecFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pwcet_benchlib_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ / "other");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_spec(const std::string& relative) {
    const std::string path = (dir_ / relative).string();
    std::ofstream(path) << R"({
      "tasks": ["fibcall"],
      "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
      "pfails": [1e-4],
      "mechanisms": ["none", "SRB", "RW"]
    })";
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(SpecFiles, EachSpecGetsItsThreeCampaignScenarios) {
  std::vector<std::string> campaign;
  for (const Scenario& scenario :
       builtin_scenarios({write_spec("tiny.json"), write_spec("small.json")}))
    if (scenario.name.rfind("campaign.", 0) == 0)
      campaign.push_back(scenario.name);
  EXPECT_EQ(campaign, (std::vector<std::string>{
                          "campaign.tiny.cold", "campaign.tiny.warm",
                          "campaign.tiny.shard_merge", "campaign.small.cold",
                          "campaign.small.warm",
                          "campaign.small.shard_merge"}));

  // Scenario names come from the stem, so a second tiny.json collides.
  EXPECT_THROW(builtin_scenarios({write_spec("tiny.json"),
                                  write_spec("other/tiny.json")}),
               std::invalid_argument);
}

TEST_F(SpecFiles, CampaignScenariosTakeTheRunPathsAndLeaveTheUserCacheAlone) {
  // PWCET_CACHE_DIR names an empty directory: no scenario may read or
  // write it.
  const std::filesystem::path user_cache = dir_ / "user-cache";
  std::filesystem::create_directories(user_cache);
  const char* saved = std::getenv("PWCET_CACHE_DIR");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("PWCET_CACHE_DIR", user_cache.c_str(), 1);

  BenchOptions bench;
  bench.warmup = 0;
  bench.repetitions = 1;
  std::map<std::string, RepetitionSample> sampled;
  for (const Scenario& scenario : builtin_scenarios({write_spec("tiny.json")})) {
    if (scenario.name.rfind("campaign.", 0) != 0) continue;
    if (scenario.setup) scenario.setup(ScenarioOptions{});
    sampled[scenario.name] =
        run_scenario(scenario.name, bench, [&] {
          scenario.body(ScenarioOptions{});
        }).samples.at(0);
  }
  if (saved != nullptr)
    ::setenv("PWCET_CACHE_DIR", saved_value.c_str(), 1);
  else
    ::unsetenv("PWCET_CACHE_DIR");
  EXPECT_TRUE(std::filesystem::is_empty(user_cache));

  const auto counter = [&](const std::string& scenario,
                           const std::string& name) {
    for (const auto& [key, value] : sampled.at(scenario).counters)
      if (key == name) return value;
    return std::uint64_t{0};
  };
  ASSERT_EQ(sampled.size(), 3u);
  // Cold and shard_merge compute all 3 jobs; warm loads them whole from
  // the directory its setup filled and computes none.
  EXPECT_EQ(counter("campaign.tiny.cold", "engine.jobs.spta"), 3u);
  EXPECT_EQ(counter("campaign.tiny.shard_merge", "engine.jobs.spta"), 3u);
  EXPECT_EQ(counter("campaign.tiny.warm", "engine.warm_loads"), 1u);
  EXPECT_EQ(counter("campaign.tiny.warm", "store.disk.campaign-report.hits"),
            1u);
  EXPECT_EQ(counter("campaign.tiny.warm", "engine.jobs.spta"), 0u);
  EXPECT_EQ(counter("campaign.tiny.cold", "engine.warm_loads"), 0u);
}

TEST_F(SpecFiles, BuiltinsAreNamedAndDescribed) {
  const std::vector<Scenario> scenarios =
      builtin_scenarios({write_spec("tiny.json")});
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
  // Without spec files only the pipeline and micro scenarios remain.
  for (const Scenario& scenario : builtin_scenarios())
    EXPECT_NE(scenario.name.rfind("campaign.", 0), 0u) << scenario.name;
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

}  // namespace
}  // namespace pwcet::benchlib
