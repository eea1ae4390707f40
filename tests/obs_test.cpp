// Tests for the observability layer (src/obs/): tracer span collection,
// nesting and thread attribution; the Perfetto/Chrome shape of the trace
// export; metrics counters, histograms and their JSON snapshot; the
// ProgressMeter's render/erase behavior; and the layer's two hard
// contracts — counter determinism for a fixed serial cold-store campaign,
// and byte-identity of campaign reports with collection on vs off at any
// thread count and store mode.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/l2_domain.hpp"
#include "analysis/pipeline.hpp"
#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "store/analysis_store.hpp"
#include "support/json_doc.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

/// Every test leaves the process-wide collectors disabled and empty — the
/// binary shares one tracer/registry across all tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
    obs::MetricsRegistry::instance().disable();
    obs::MetricsRegistry::instance().clear();
  }

  /// 12 cheap SPTA jobs in 2 analyzer groups (2 tasks x 1 geometry x
  /// 2 pfails x 3 mechanisms) — the same grid cli_test uses.
  static CampaignSpec tiny_spec() {
    CampaignSpec spec;
    spec.tasks = {"fibcall", "bs"};
    spec.geometries = {CacheConfig::paper_default()};
    spec.pfails = {1e-6, 1e-4};
    spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                       Mechanism::kReliableWay};
    return spec;
  }

  /// Non-"_ns" counters: the structural, deterministic subset (busy_ns
  /// counts wall time and is excluded from determinism comparisons).
  static std::vector<std::pair<std::string, std::uint64_t>>
  structural_counters() {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (auto& entry : obs::MetricsRegistry::instance().counters()) {
      const std::string& name = entry.first;
      if (name.size() >= 3 && name.rfind("_ns") == name.size() - 3) continue;
      if (entry.second != 0) out.push_back(std::move(entry));
    }
    return out;
  }
};

// ---- tracer ---------------------------------------------------------------

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  {
    obs::TraceSpan span("should.not.appear");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

TEST_F(ObsTest, SpanStraddlingEnableIsDropped) {
  // The enabled check happens once, on open.
  obs::Tracer::instance().disable();
  {
    obs::TraceSpan span("opened.disabled");
    obs::Tracer::instance().enable();
  }
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

TEST_F(ObsTest, SpansNestByTimeContainmentOnOneThread) {
  obs::Tracer::instance().enable();
  {
    obs::TraceSpan outer("outer");
    obs::TraceSpan inner("inner");
    EXPECT_TRUE(outer.active());
    EXPECT_TRUE(inner.active());
  }
  obs::Tracer::instance().disable();

  const Json doc =
      parse_json(obs::Tracer::instance().trace_json(), "<trace>");
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  const Json* outer = nullptr;
  const Json* inner = nullptr;
  for (const Json& event : events->array) {
    const Json* name = event.find("name");
    ASSERT_NE(name, nullptr);
    if (name->string == "outer") outer = &event;
    if (name->string == "inner") inner = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->find("tid")->integer, inner->find("tid")->integer);
  const double outer_start = outer->find("ts")->number;
  const double outer_end = outer_start + outer->find("dur")->number;
  const double inner_start = inner->find("ts")->number;
  const double inner_end = inner_start + inner->find("dur")->number;
  // The viewer reconstructs the stack from interval containment; allow
  // the export's 3-decimal (nanosecond) rounding at the edges.
  EXPECT_GE(inner_start, outer_start - 1e-3);
  EXPECT_LE(inner_end, outer_end + 1e-3);
}

TEST_F(ObsTest, SpansAttributeToTheRecordingThread) {
  obs::Tracer::instance().enable();
  const std::uint32_t main_tid = obs::Tracer::instance().current_thread_id();
  {
    obs::TraceSpan span("main.span");
  }
  std::thread worker([] {
    obs::Tracer::instance().name_current_thread("helper");
    obs::TraceSpan span("helper.span");
  });
  worker.join();
  obs::Tracer::instance().disable();

  // The worker's buffer outlives the worker (co-owned by the registry).
  const std::string json = obs::Tracer::instance().trace_json();
  EXPECT_NE(json.find("\"helper\""), std::string::npos);

  const Json doc = parse_json(json, "<trace>");
  std::uint64_t helper_tid = main_tid;
  for (const Json& event : doc.find("traceEvents")->array)
    if (event.find("name")->string == "helper.span")
      helper_tid = event.find("tid")->integer;
  EXPECT_NE(helper_tid, main_tid);
}

TEST_F(ObsTest, TraceExportHasThePerfettoShape) {
  obs::Tracer::instance().enable();
  {
    obs::TraceSpan span("shaped", "test");
    span.annotate("\"cells\":3");
  }
  obs::Tracer::instance().disable();

  const Json doc =
      parse_json(obs::Tracer::instance().trace_json(), "<trace>");
  ASSERT_EQ(doc.type, Json::Type::kObject);
  EXPECT_EQ(doc.find("displayTimeUnit")->string, "ms");
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, Json::Type::kArray);
  ASSERT_FALSE(events->array.empty());

  bool saw_process_name = false;
  bool saw_span = false;
  for (const Json& event : events->array) {
    // Every event carries the members Perfetto keys on.
    for (const char* key : {"name", "ph", "pid", "tid"})
      ASSERT_NE(event.find(key), nullptr) << "missing " << key;
    EXPECT_EQ(event.find("pid")->integer, 1u);
    const std::string& ph = event.find("ph")->string;
    if (ph == "M" && event.find("name")->string == "process_name")
      saw_process_name = true;
    if (ph == "X") {
      ASSERT_NE(event.find("ts"), nullptr);
      ASSERT_NE(event.find("dur"), nullptr);
      EXPECT_EQ(event.find("name")->string, "shaped");
      EXPECT_EQ(event.find("cat")->string, "test");
      EXPECT_EQ(event.find("args")->find("cells")->integer, 3u);
      saw_span = true;
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_span);
}

// ---- metrics --------------------------------------------------------------

TEST_F(ObsTest, DisabledRegistryIgnoresGatedRecorders) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.add("ignored.counter");
  registry.observe_ns("ignored.histogram", 42);
  obs::count_store("memo", "core", "hits");
  EXPECT_TRUE(registry.counters().empty());
  EXPECT_TRUE(registry.histograms().empty());
}

TEST_F(ObsTest, HistogramTracksCountSumMinMaxAndPowerOfTwoBuckets) {
  obs::DurationHistogram histogram;
  histogram.observe_ns(1);     // bit_width 1
  histogram.observe_ns(1000);  // bit_width 10
  histogram.observe_ns(1500);  // bit_width 11
  const auto snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum_ns, 2501u);
  EXPECT_EQ(snap.min_ns, 1u);
  EXPECT_EQ(snap.max_ns, 1500u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[10], 1u);
  EXPECT_EQ(snap.buckets[11], 1u);
}

TEST_F(ObsTest, SnapshotJsonParsesAndRoundTripsValues) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.enable();
  registry.add("alpha.count", 7);
  registry.observe_ns("beta.time", 1000);
  registry.observe_ns("beta.time", 3000);
  registry.disable();

  const Json doc = parse_json(registry.json_snapshot(), "<metrics>");
  EXPECT_EQ(doc.find("counters")->find("alpha.count")->integer, 7u);
  const Json* beta = doc.find("histograms")->find("beta.time");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->find("count")->integer, 2u);
  EXPECT_EQ(beta->find("sum_ns")->integer, 4000u);
  EXPECT_EQ(beta->find("min_ns")->integer, 1000u);
  EXPECT_EQ(beta->find("max_ns")->integer, 3000u);
  const Json* buckets = beta->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_FALSE(buckets->array.empty());
  for (const Json& bucket : buckets->array) {
    ASSERT_NE(bucket.find("le_ns"), nullptr);
    ASSERT_NE(bucket.find("count"), nullptr);
  }
}

TEST_F(ObsTest, QuantileInterpolatesInsideTheBucket) {
  // {4,5,6,7} all land in bucket [4,7]: the interpolated quantiles must
  // match the exact empirical ones (p50 = 5.5, p90 = 6.7) because the
  // samples are uniform over the bucket.
  obs::DurationHistogram histogram;
  for (const std::uint64_t ns : {4u, 5u, 6u, 7u}) histogram.observe_ns(ns);
  const auto snap = histogram.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile_ns(0.5), 5.5);
  EXPECT_DOUBLE_EQ(snap.quantile_ns(0.9), 6.7);
}

TEST_F(ObsTest, QuantileWalksBucketsAndClampsToTheObservedEnvelope) {
  obs::DurationHistogram spread;
  for (const std::uint64_t ns : {1u, 4u, 5u, 6u, 7u, 64u})
    spread.observe_ns(ns);
  // Median target falls in the [4,7] bucket after one sample in [1,1].
  EXPECT_DOUBLE_EQ(spread.snapshot().quantile_ns(0.5), 5.5);
  // Out-of-range q clamps; an empty histogram reads zero.
  EXPECT_DOUBLE_EQ(spread.snapshot().quantile_ns(-1.0),
                   spread.snapshot().quantile_ns(0.0));
  EXPECT_DOUBLE_EQ(obs::DurationHistogram().snapshot().quantile_ns(0.5), 0.0);

  // A single sample: every quantile is that sample, because the bucket
  // interpolation is clamped to the [min_ns, max_ns] envelope (1000 sits
  // mid-bucket in [512, 1023] — unclamped interpolation would undershoot).
  obs::DurationHistogram single;
  single.observe_ns(1000);
  const auto snap = single.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile_ns(0.01), 1000.0);
  EXPECT_DOUBLE_EQ(snap.quantile_ns(0.5), 1000.0);
  EXPECT_DOUBLE_EQ(snap.quantile_ns(0.99), 1000.0);
}

TEST_F(ObsTest, SnapshotJsonCarriesDerivedPercentiles) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.enable();
  for (const std::uint64_t ns : {4u, 5u, 6u, 7u})
    registry.observe_ns("gamma.time", ns);
  registry.disable();

  const Json doc = parse_json(registry.json_snapshot(), "<metrics>");
  const Json* gamma = doc.find("histograms")->find("gamma.time");
  ASSERT_NE(gamma, nullptr);
  ASSERT_NE(gamma->find("p50_ns"), nullptr);
  ASSERT_NE(gamma->find("p90_ns"), nullptr);
  ASSERT_NE(gamma->find("p99_ns"), nullptr);
  EXPECT_DOUBLE_EQ(gamma->find("p50_ns")->number, 5.5);
  EXPECT_DOUBLE_EQ(gamma->find("p90_ns")->number, 6.7);
}

// ---- campaign integration -------------------------------------------------

TEST_F(ObsTest, StructuralCountersAreDeterministicForSerialColdRuns) {
  RunnerOptions options;
  options.threads = 1;

  const auto run_once = [&] {
    reset();
    obs::MetricsRegistry::instance().enable();
    AnalysisStore store;  // fresh: both runs start cold
    options.shared_store = &store;
    run_campaign(tiny_spec(), options);
    obs::MetricsRegistry::instance().disable();
    return structural_counters();
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);

  // Spot-check the structural counts against the grid: 12 jobs in 2
  // analyzer groups.
  std::uint64_t jobs = 0, spta = 0, campaign_misses = 0,
                penalty_lookups = 0;
  for (const auto& [name, value] : first) {
    if (name == "engine.jobs") jobs = value;
    if (name == "engine.jobs.spta") spta = value;
    if (name == "store.memo.campaign.misses") campaign_misses = value;
    if (name == "store.memo.penalty.hits" ||
        name == "store.memo.penalty.misses")
      penalty_lookups += value;
    // The memo holds only what a campaign reads back.
    if (name.rfind("store.memo.", 0) == 0) {
      EXPECT_TRUE(name.rfind("store.memo.campaign.", 0) == 0 ||
                  name.rfind("store.memo.penalty.", 0) == 0 ||
                  name.rfind("store.memo.fmm-rows.", 0) == 0)
          << name;
    }
  }
  EXPECT_EQ(jobs, 12u);
  EXPECT_EQ(spta, 12u);
  // One whole-campaign lookup, a cold miss; this single-domain spec makes
  // no penalty lookup (its penalty is the job's result).
  EXPECT_EQ(campaign_misses, 1u);
  EXPECT_EQ(penalty_lookups, 0u);
}

TEST_F(ObsTest, MemoBytesAreDeterministicForSerialColdRuns) {
  // With a dcache the tiny grid memoizes its penalties. Two cold serial
  // runs insert the same payload bytes, and with nothing evicted the
  // store's resident bytes are exactly what the layers inserted.
  CampaignSpec spec = tiny_spec();
  DcacheAxis dcache;
  dcache.enabled = true;
  dcache.geometry.sets = 8;
  dcache.geometry.ways = 2;
  spec.dcaches = {dcache};
  RunnerOptions options;
  options.threads = 1;

  const auto run_once = [&] {
    reset();
    obs::MetricsRegistry::instance().enable();
    AnalysisStore store;
    options.shared_store = &store;
    run_campaign(spec, options);
    obs::MetricsRegistry::instance().disable();
    std::uint64_t penalty_bytes = 0, inserted = 0;
    for (const auto& [name, value] :
         obs::MetricsRegistry::instance().counters()) {
      if (name == "store.memo.penalty.bytes") penalty_bytes = value;
      if (name.rfind("store.memo.", 0) == 0 &&
          name.size() > 6 && name.rfind(".bytes") == name.size() - 6)
        inserted += value;
    }
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.bytes, inserted);
    return penalty_bytes;
  };

  const std::uint64_t first = run_once();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, run_once());
}

TEST_F(ObsTest, InProcessReRunExecutesNoJob) {
  // Every job kind, twice on one in-memory store: the second run is
  // answered whole from the memo's campaign entry — the same bytes, and
  // not one job (nor one chip simulation) runs again.
  CampaignSpec spec;
  spec.tasks = {"fibcall", "bs"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  spec.kinds = {AnalysisKind::kSpta, AnalysisKind::kMbpta,
                AnalysisKind::kSimulation, AnalysisKind::kSlack};
  spec.mbpta.chips = 200;
  spec.simulation_chips = 200;

  AnalysisStore store;
  RunnerOptions options;
  options.threads = 2;
  options.shared_store = &store;
  obs::MetricsRegistry::instance().enable();
  const std::string first = report_jsonl(run_campaign(spec, options));
  const auto after_first = structural_counters();
  const std::string second = report_jsonl(run_campaign(spec, options));
  const auto after_second = structural_counters();
  EXPECT_EQ(first, second);

  const auto counter = [](const auto& counters, const std::string& name) {
    for (const auto& [key, value] : counters)
      if (key == name) return value;
    return std::uint64_t{0};
  };
  EXPECT_EQ(counter(after_second, "engine.warm_loads"), 1u);
  for (const char* kind : {"spta", "mbpta", "sim", "slack"}) {
    const std::string name = std::string("engine.jobs.") + kind;
    EXPECT_EQ(counter(after_first, name), 4u) << name;
    EXPECT_EQ(counter(after_second, name), counter(after_first, name))
        << name;
  }
}

TEST_F(ObsTest, ShardsCountOnlyTheJobsTheyOwn) {
  // engine.jobs counts the jobs a run executes, so the shards of a 3-way
  // split (one owns no group: tiny_spec has 2) sum to the whole run's.
  const auto counted = [](const ShardSelector& shard) {
    reset();
    obs::MetricsRegistry::instance().enable();
    RunnerOptions options;
    options.threads = 1;
    options.store.enabled = false;
    options.shard = shard;
    run_campaign(tiny_spec(), options);
    obs::MetricsRegistry::instance().disable();
    std::uint64_t jobs = 0, spta = 0;
    for (const auto& [name, value] :
         obs::MetricsRegistry::instance().counters()) {
      if (name == "engine.jobs") jobs = value;
      if (name == "engine.jobs.spta") spta = value;
    }
    return std::pair{jobs, spta};
  };
  const std::uint64_t whole = counted(ShardSelector{0, 1}).first;
  EXPECT_EQ(whole, 12u);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto [jobs, spta] = counted(ShardSelector{i, 3});
    EXPECT_EQ(jobs, spta) << "shard " << i + 1 << "/3";
    sum += jobs;
  }
  EXPECT_EQ(sum, whole);
}

TEST_F(ObsTest, SerialQueueWaitIsBoundedByTheCampaignWall) {
  // Regression: engine.queue_wait once measured every group from the bulk
  // enqueue instant, so a serial campaign's backlog counted as "wait" and
  // the histogram summed to ~6x the wall clock (a 1.68s run reported a
  // 9.96s median). The wait of a group is the time it sat runnable with
  // an idle worker — on a serial run those gaps are scheduler overhead
  // only, so their *sum* must stay below the campaign wall clock.
  RunnerOptions options;
  options.threads = 1;
  AnalysisStore store;
  options.shared_store = &store;
  obs::MetricsRegistry::instance().enable();
  const CampaignResult result = run_campaign(tiny_spec(), options);
  obs::MetricsRegistry::instance().disable();

  const auto waits =
      obs::MetricsRegistry::instance().histogram("engine.queue_wait")
          .snapshot();
  ASSERT_GT(waits.count, 0u);  // one sample per analyzer group
  const double wall_ns = result.wall_seconds * 1e9;
  EXPECT_LT(static_cast<double>(waits.sum_ns), wall_ns);
}

TEST_F(ObsTest, ReportsAreByteIdenticalWithObservabilityOnOrOff) {
  const CampaignSpec spec = tiny_spec();

  RunnerOptions reference_options;
  reference_options.threads = 1;
  reference_options.store.enabled = false;
  const std::string reference =
      report_csv(run_campaign(spec, reference_options));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const bool store_on : {false, true}) {
      reset();
      obs::Tracer::instance().enable();
      obs::MetricsRegistry::instance().enable();
      RunnerOptions options;
      options.threads = threads;
      options.store.enabled = store_on;
      AnalysisStore store;
      if (store_on) options.shared_store = &store;
      const CampaignResult observed = run_campaign(spec, options);
      obs::Tracer::instance().disable();
      obs::MetricsRegistry::instance().disable();
      EXPECT_EQ(report_csv(observed), reference)
          << "threads=" << threads << " store=" << store_on;
      EXPECT_GT(obs::Tracer::instance().event_count(), 0u);
    }
  }
}

TEST_F(ObsTest, CampaignTraceContainsThePhaseTaxonomy) {
  obs::Tracer::instance().enable();
  RunnerOptions options;
  options.threads = 2;
  AnalysisStore store;
  options.shared_store = &store;
  run_campaign(tiny_spec(), options);
  obs::Tracer::instance().disable();

  const std::string json = obs::Tracer::instance().trace_json();
  for (const char* name :
       {obs::engine_name::kCampaign, obs::engine_name::kGroup,
        obs::engine_name::kJob, obs::phase_name::kCore,
        obs::phase_name::kExtract, obs::phase_name::kClassify,
        obs::phase_name::kMaximize, obs::phase_name::kFmm,
        obs::phase_name::kAnalyze, obs::phase_name::kPwf,
        obs::phase_name::kPenalty, obs::phase_name::kConvolve})
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << "span " << name << " missing from campaign trace";
  // Pool workers named themselves (tracing was on at pool construction).
  EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
}

TEST_F(ObsTest, FoldSpanMarksEachCrossDomainStep) {
  // phase.fold covers one step of the cross-domain fold: domains - 1
  // spans per analysis, and none when the icache is the only domain.
  const Program program = workloads::build("fibcall");
  const CacheConfig icache = CacheConfig::paper_default();
  CacheConfig dcache = icache;
  dcache.sets = 8;
  dcache.ways = 2;
  CacheConfig l2 = icache;
  l2.sets = 64;
  l2.line_bytes = 32;
  const FaultModel faults(1e-4);
  const auto fold_spans = [] {
    const Json doc =
        parse_json(obs::Tracer::instance().trace_json(), "<trace>");
    std::size_t spans = 0;
    for (const Json& event : doc.find("traceEvents")->array)
      if (event.find("name")->string == obs::phase_name::kFold) ++spans;
    return spans;
  };

  obs::Tracer::instance().enable();
  PwcetPipeline(program, {std::make_shared<const IcacheDomain>(icache)})
      .analyze(faults, Mechanism::kNone);
  EXPECT_EQ(fold_spans(), 0u);

  PwcetPipeline(program, {std::make_shared<const IcacheDomain>(icache),
                          std::make_shared<const DcacheDomain>(dcache),
                          std::make_shared<const L2Domain>(l2)})
      .analyze(faults, Mechanism::kNone);
  obs::Tracer::instance().disable();
  EXPECT_EQ(fold_spans(), 2u);
}

TEST_F(ObsTest, PerJobEventsFireOnBothColdAndWarmPaths) {
  // The runner must report every job to on_job_finished — computed jobs
  // and jobs answered at once by the whole-campaign warm disk path — or a
  // progress meter would stall short of jobs/jobs.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("pwcet_obs_warm_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  const CampaignSpec spec = tiny_spec();

  std::atomic<std::size_t> finished{0};
  RunnerOptions options;
  options.threads = 2;
  options.store.artifact_dir = dir;
  options.on_job_finished = [&finished] {
    finished.fetch_add(1, std::memory_order_relaxed);
  };

  run_campaign(spec, options);  // cold: computes, persists the report
  EXPECT_EQ(finished.load(), 12u);

  finished.store(0);
  run_campaign(spec, options);  // warm: whole campaign from one artifact
  EXPECT_EQ(finished.load(), 12u);
  std::filesystem::remove_all(dir);
}

// ---- progress meter -------------------------------------------------------

TEST_F(ObsTest, ProgressMeterRendersCountsAndErasesItself) {
  std::ostringstream out;
  obs::ProgressMeter meter(3, out, /*enabled=*/true);
  meter.job_finished();
  meter.job_finished();
  meter.job_finished();  // final cell always renders
  meter.finish();
  const std::string text = out.str();
  EXPECT_NE(text.find("3/3"), std::string::npos);
  EXPECT_NE(text.find("100%"), std::string::npos);
  EXPECT_NE(text.find('\r'), std::string::npos);
  // finish() leaves the cursor on an erased line: the output ends with a
  // carriage return after blanks, so the next stderr line starts clean.
  EXPECT_EQ(text.back(), '\r');
}

TEST_F(ObsTest, ProgressMeterSeedsEtaAfterFirstJobAndClampsAtCompletion) {
  std::ostringstream out;
  obs::ProgressMeter meter(3, out, /*enabled=*/true);
  // One completed job is not a rate yet (the gap before it is startup
  // cost, not throughput): the first render must show "--", not a number
  // extrapolated from thin air.
  meter.job_finished();
  EXPECT_NE(out.str().find("ETA --"), std::string::npos);
  meter.job_finished();
  meter.job_finished();
  // The final cell always renders, and at done == total the ETA is
  // clamped to zero — never a residual positive estimate.
  EXPECT_NE(out.str().find("ETA 0.0s"), std::string::npos);
  meter.finish();
}

TEST_F(ObsTest, DisabledProgressMeterWritesNothing) {
  std::ostringstream out;
  obs::ProgressMeter meter(3, out, /*enabled=*/false);
  meter.job_finished();
  meter.finish();
  EXPECT_TRUE(out.str().empty());
}

}  // namespace
}  // namespace pwcet
