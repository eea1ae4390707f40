// Unit tests for the campaign engine: thread pool (ordering, exceptions,
// nesting), RNG substreams, campaign expansion, and the determinism
// contract (an N-thread campaign reproduces a 1-thread campaign byte for
// byte).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>

#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "engine/campaign.hpp"
#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "engine/spec_io.hpp"
#include "engine/thread_pool.hpp"
#include "support/rng.hpp"
#include "workloads/malardalen.hpp"

#ifndef PWCET_SPECS_DIR
#define PWCET_SPECS_DIR "specs"
#endif

namespace pwcet {
namespace {

TEST(ThreadPool, ResultsInSubmissionOrder) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  const auto results = pool.map_indexed(
      1000, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(results.size(), 1000u);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i], static_cast<int>(i * i));
}

TEST(ThreadPool, ManySmallJobsStress) {
  ThreadPool pool(8);
  std::atomic<int> executed{0};
  const auto results = pool.map_indexed(5000, [&](std::size_t i) {
    executed.fetch_add(1, std::memory_order_relaxed);
    return i;
  });
  EXPECT_EQ(executed.load(), 5000);
  EXPECT_EQ(results.size(), 5000u);
}

TEST(ThreadPool, ExceptionsPropagateToWaiter) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.map_indexed(100,
                                [](std::size_t i) {
                                  if (i == 37)
                                    throw std::runtime_error("job 37");
                                  return i;
                                }),
               std::runtime_error);
  // The pool survives a throwing batch.
  const auto ok = pool.map_indexed(8, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(ok.size(), 8u);
}

TEST(ThreadPool, NestedFanOutDoesNotDeadlock) {
  // Jobs submit sub-jobs to the same pool and wait for them: with only one
  // worker this deadlocks unless waiting threads help drain the queue.
  ThreadPool pool(1);
  const auto results = pool.map_indexed(4, [&](std::size_t i) {
    const auto inner =
        pool.map_indexed(4, [i](std::size_t j) { return i * 10 + j; });
    std::size_t sum = 0;
    for (const std::size_t v : inner) sum += v;
    return sum;
  });
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(results[i], 40 * i + 6);
}

TEST(RngSplit, DeriveSeedSeparatesStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 1000; ++stream)
    seeds.insert(Rng::derive_seed(42, stream));
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(Rng::derive_seed(1, 0), Rng::derive_seed(2, 0));
}

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.tasks = {"fibcall", "bs"};
  CacheConfig small = CacheConfig::paper_default();
  CacheConfig tiny = CacheConfig::paper_default();
  tiny.sets = 8;
  tiny.ways = 2;
  spec.geometries = {small, tiny};
  spec.pfails = {1e-4, 1e-3};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kReliableWay,
                     Mechanism::kSharedReliableBuffer};
  return spec;
}

TEST(Campaign, ExpandsTheFullGrid) {
  const CampaignSpec spec = small_spec();
  const auto jobs = expand_campaign(spec);
  ASSERT_EQ(jobs.size(), 2u * 2u * 2u * 3u);
  ASSERT_EQ(jobs.size(), spec.job_count());

  // Expansion order is row-major with kinds innermost; indices invert it.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CampaignJob& job = jobs[i];
    EXPECT_EQ(job.index, i);
    EXPECT_EQ(campaign_job_index(spec, job.task_i, job.geometry_i,
                                 job.pfail_i, job.mechanism_i, job.engine_i,
                                 job.kind_i),
              i);
    EXPECT_EQ(job.task, spec.tasks[job.task_i]);
    EXPECT_EQ(job.pfail, spec.pfails[job.pfail_i]);
    EXPECT_EQ(job.mechanism, spec.mechanisms[job.mechanism_i]);
    EXPECT_EQ(job.geometry.sets, spec.geometries[job.geometry_i].sets);
  }
  // First axis to move is the innermost one.
  EXPECT_EQ(jobs[0].mechanism_i, 0u);
  EXPECT_EQ(jobs[1].mechanism_i, 1u);
  EXPECT_EQ(jobs[0].task_i, 0u);
  EXPECT_EQ(jobs.back().task_i, 1u);
}

TEST(Campaign, SeedsAreUniqueAndKeyedByValues) {
  const CampaignSpec spec = small_spec();
  const auto jobs = expand_campaign(spec);
  std::set<std::uint64_t> seeds;
  for (const CampaignJob& job : jobs) seeds.insert(job.seed);
  EXPECT_EQ(seeds.size(), jobs.size());

  // Seeds depend on the job's own axis values, not on grid position:
  // extending an axis must not reseed pre-existing cells.
  CampaignSpec wider = spec;
  wider.pfails.push_back(1e-6);
  const auto wider_jobs = expand_campaign(wider);
  for (const CampaignJob& job : jobs) {
    const CampaignJob& same = wider_jobs[campaign_job_index(
        wider, job.task_i, job.geometry_i, job.pfail_i, job.mechanism_i,
        job.engine_i, job.kind_i)];
    EXPECT_EQ(job.seed, same.seed) << job.id();
  }

  // A different base seed moves every stream.
  CampaignSpec reseeded = spec;
  reseeded.base_seed = spec.base_seed + 1;
  EXPECT_NE(expand_campaign(reseeded)[0].seed, jobs[0].seed);
}

TEST(Campaign, JobIdNamesEveryAxis) {
  const auto jobs = expand_campaign(small_spec());
  EXPECT_EQ(jobs[0].id(), "fibcall/16x4x16B/1.0e-04/none/ilp/spta");

  // Non-default extension axes append suffixes; default cells keep the
  // historic id above.
  CampaignSpec spec = small_spec();
  DcacheAxis dcache;
  dcache.enabled = true;
  dcache.geometry.sets = 8;
  spec.dcaches = {dcache};
  spec.dcache_mechanisms = {DcacheMechanism::kSharedReliableBuffer};
  const auto dcache_jobs = expand_campaign(spec);
  EXPECT_EQ(dcache_jobs[0].id(),
            "fibcall/16x4x16B/1.0e-04/none/ilp/spta/D8x4x16B/SRB");

  CampaignSpec sampled = small_spec();
  sampled.kinds = {AnalysisKind::kSimulation};
  sampled.sample_counts = {200};
  EXPECT_EQ(expand_campaign(sampled)[0].id(),
            "fibcall/16x4x16B/1.0e-04/none/ilp/sim/n200");
}

TEST(Campaign, NewAxesExpandInnermostAndKeepSeedsStable) {
  // The extension axes (dcaches, dcache_mechanisms, sample_counts) expand
  // innermost, so adding them to a spec leaves the relative order of the
  // pre-existing cells unchanged; and seeds stay keyed by axis *values*:
  // widening any new axis must not reseed pre-existing cells.
  CampaignSpec spec = small_spec();
  DcacheAxis dcache;
  dcache.enabled = true;
  dcache.geometry.sets = 8;
  spec.dcaches = {dcache};
  spec.dcache_mechanisms = {DcacheMechanism::kNone,
                            DcacheMechanism::kReliableWay};
  spec.sample_counts = {0, 100};
  const auto jobs = expand_campaign(spec);
  ASSERT_EQ(jobs.size(), spec.job_count());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CampaignJob& job = jobs[i];
    EXPECT_EQ(campaign_job_index(spec, job.task_i, job.geometry_i,
                                 job.pfail_i, job.mechanism_i, job.engine_i,
                                 job.kind_i, job.dcache_i, job.dmech_i,
                                 job.samples_i),
              i);
  }
  // samples is the innermost axis.
  EXPECT_EQ(jobs[0].samples_i, 0u);
  EXPECT_EQ(jobs[1].samples_i, 1u);

  std::set<std::uint64_t> seeds;
  for (const CampaignJob& job : jobs) seeds.insert(job.seed);
  EXPECT_EQ(seeds.size(), jobs.size());

  CampaignSpec wider = spec;
  wider.sample_counts.push_back(500);
  const auto wider_jobs = expand_campaign(wider);
  for (const CampaignJob& job : jobs) {
    const CampaignJob& same = wider_jobs[campaign_job_index(
        wider, job.task_i, job.geometry_i, job.pfail_i, job.mechanism_i,
        job.engine_i, job.kind_i, job.dcache_i, job.dmech_i,
        job.samples_i)];
    EXPECT_EQ(job.seed, same.seed) << job.id();
  }
}

TEST(Campaign, IgnoredAxisValuesDoNotPerturbSeeds) {
  // Seeds derive only from axis values the cell actually consumes
  // (mirroring id()'s suffix rule). Consequences: cells identical in
  // every meaningful axis share a seed even when an *ignored* axis value
  // differs, and campaigns written before the extension axes existed
  // keep their published seeds.
  const CampaignSpec historic = small_spec();
  const auto historic_jobs = expand_campaign(historic);

  // A dcache mechanism without a data cache is ignored: same seed.
  CampaignSpec with_dmech = historic;
  with_dmech.dcache_mechanisms = {DcacheMechanism::kSharedReliableBuffer};
  EXPECT_EQ(expand_campaign(with_dmech)[0].seed, historic_jobs[0].seed);

  // Two pairings resolving to the same data-cache mechanism are the same
  // computation: same seed.
  CampaignSpec resolved = historic;
  DcacheAxis dcache;
  dcache.enabled = true;
  dcache.geometry.sets = 8;
  resolved.dcaches = {dcache};
  resolved.mechanisms = {Mechanism::kSharedReliableBuffer};
  resolved.dcache_mechanisms = {DcacheMechanism::kSame,
                                DcacheMechanism::kSharedReliableBuffer};
  const auto resolved_jobs = expand_campaign(resolved);
  EXPECT_EQ(resolved_jobs[0].seed, resolved_jobs[1].seed);

  // A default sample count (0 = spec-level populations) derives through
  // the historic chain; an explicit one reseeds.
  CampaignSpec sampled = historic;
  sampled.sample_counts = {0, 100};
  const auto sampled_jobs = expand_campaign(sampled);
  EXPECT_EQ(sampled_jobs[0].seed, historic_jobs[0].seed);
  EXPECT_NE(sampled_jobs[1].seed, historic_jobs[0].seed);
}

TEST(Runner, TwoThreadRunIsByteIdenticalToOneThread) {
  CampaignSpec spec = small_spec();
  spec.kinds = {AnalysisKind::kSpta, AnalysisKind::kMbpta,
                AnalysisKind::kSimulation};
  spec.mbpta.chips = 40;
  spec.mbpta.block_size = 10;
  spec.simulation_chips = 50;

  RunnerOptions serial;
  serial.threads = 1;
  RunnerOptions parallel;
  parallel.threads = 2;

  const CampaignResult a = run_campaign(spec, serial);
  const CampaignResult b = run_campaign(spec, parallel);
  EXPECT_EQ(a.threads_used, 1u);
  EXPECT_EQ(b.threads_used, 2u);
  ASSERT_EQ(a.results.size(), b.results.size());
  EXPECT_EQ(report_csv(a), report_csv(b));
  EXPECT_EQ(report_jsonl(a), report_jsonl(b));
}

TEST(Runner, EveryKindIsByteIdenticalAtEveryThreadCount) {
  // A group's jobs run concurrently on the campaign pool and share its
  // program and pipeline, so every kind must reproduce the serial bytes at
  // any worker count, with the store off and on.
  CampaignSpec all_kinds;
  all_kinds.tasks = {"fibcall", "bs"};
  CacheConfig tiny = CacheConfig::paper_default();
  tiny.sets = 8;
  tiny.ways = 2;
  all_kinds.geometries = {CacheConfig::paper_default(), tiny};
  all_kinds.pfails = {1e-3};
  // Slack cells accept only the two reliability mechanisms.
  all_kinds.mechanisms = {Mechanism::kReliableWay,
                          Mechanism::kSharedReliableBuffer};
  all_kinds.kinds = {AnalysisKind::kSpta, AnalysisKind::kMbpta,
                     AnalysisKind::kSimulation, AnalysisKind::kSlack};
  all_kinds.ccdf_exceedances = {1e-2, 1e-6};
  all_kinds.mbpta.chips = 40;
  all_kinds.mbpta.block_size = 10;
  all_kinds.simulation_chips = 50;

  // Shaped like specs/srb_conservatism.json: slack-only groups of two
  // jobs, whose concurrent set analyses walk one CFG's loop table.
  CampaignSpec slack_only;
  slack_only.tasks = {"fibcall", "bs", "crc", "insertsort", "matmult",
                      "expint"};
  slack_only.geometries = {CacheConfig::paper_default()};
  slack_only.pfails = {1e-4};
  slack_only.mechanisms = {Mechanism::kSharedReliableBuffer,
                           Mechanism::kReliableWay};
  slack_only.kinds = {AnalysisKind::kSlack};

  for (const CampaignSpec* spec : {&all_kinds, &slack_only}) {
    RunnerOptions serial;
    serial.threads = 1;
    serial.store.enabled = false;
    const CampaignResult reference = run_campaign(*spec, serial);
    ASSERT_EQ(reference.results.size(), spec->job_count());
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
      for (const bool store_on : {false, true}) {
        // A fresh in-memory store, whatever PWCET_CACHE_DIR says, so every
        // run computes its jobs instead of loading an earlier run's.
        AnalysisStore store;
        RunnerOptions options;
        options.threads = threads;
        options.store.enabled = false;
        if (store_on) options.shared_store = &store;
        const CampaignResult run = run_campaign(*spec, options);
        EXPECT_EQ(run.threads_used, threads);
        EXPECT_EQ(report_jsonl(run), report_jsonl(reference))
            << spec->tasks.size() << " tasks, threads=" << threads
            << " store=" << store_on;
        EXPECT_EQ(report_dist_jsonl(run), report_dist_jsonl(reference))
            << spec->tasks.size() << " tasks, threads=" << threads
            << " store=" << store_on;
      }
    }
  }
}

TEST(Runner, PooledAnalyzerMatchesSerialAnalyzer) {
  // The per-set fan-out and pooled tree reduction inside one analysis must
  // not change a single bit of the result.
  const Program program = workloads::build("fibcall");
  const CacheConfig config = CacheConfig::paper_default();
  const FaultModel faults(1e-4);

  const PwcetPipeline serial(program,
                             {std::make_shared<IcacheDomain>(config)});
  ThreadPool pool(3);
  PwcetOptions pooled_options;
  pooled_options.pool = &pool;
  const PwcetPipeline pooled(
      program, {std::make_shared<IcacheDomain>(config)}, pooled_options);

  EXPECT_EQ(serial.fault_free_wcet(), pooled.fault_free_wcet());
  for (const Mechanism m : {Mechanism::kNone, Mechanism::kReliableWay,
                            Mechanism::kSharedReliableBuffer}) {
    const PwcetResult rs = serial.analyze(faults, m);
    const PwcetResult rp = pooled.analyze(faults, m);
    EXPECT_EQ(rs.penalty, rp.penalty);
    EXPECT_EQ(rs.pwcet(1e-15), rp.pwcet(1e-15));
  }
}

TEST(Runner, TreeEngineCampaignIsDeterministicToo) {
  CampaignSpec spec;
  spec.tasks = {"fibcall"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer};
  spec.engines = {WcetEngine::kTree};

  RunnerOptions serial;
  serial.threads = 1;
  RunnerOptions parallel;
  parallel.threads = 4;
  EXPECT_EQ(report_csv(run_campaign(spec, serial)),
            report_csv(run_campaign(spec, parallel)));
}

TEST(Runner, SimulationNeverExceedsStaticBound) {
  CampaignSpec spec;
  spec.tasks = {"bs"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-3};
  spec.mechanisms = {Mechanism::kNone};
  spec.kinds = {AnalysisKind::kSpta, AnalysisKind::kSimulation};
  spec.simulation_chips = 200;

  const CampaignResult campaign = run_campaign(spec, {});
  const JobResult& spta = campaign.at(0, 0, 0, 0, 0, 0);
  const JobResult& sim = campaign.at(0, 0, 0, 0, 0, 1);
  EXPECT_GT(spta.pwcet, 0.0);
  // The static bound must dominate every simulated execution.
  EXPECT_GE(spta.pwcet, sim.observed_max);
}

TEST(Runner, SlackBoundsCoverTheSimulatedMisses) {
  // The E5 claims: the static miss bound covers the simulated misses in
  // both regimes, and with every set faulty the SRB's reload assumption
  // is exact.
  const SpecDocument doc =
      load_spec(std::string(PWCET_SPECS_DIR) + "/srb_conservatism.json");
  const CampaignResult campaign = run_campaign(doc.spec);
  ASSERT_EQ(campaign.results.size(), 50u);
  for (const JobResult& r : campaign.results) {
    EXPECT_GE(r.bound_misses, r.sim_misses) << r.job.id();
    EXPECT_GE(r.bound_misses_1, r.sim_misses_1) << r.job.id();
    if (r.job.mechanism == Mechanism::kSharedReliableBuffer) {
      EXPECT_EQ(r.bound_misses, r.sim_misses) << r.job.id();
    }
  }
}

TEST(Report, ShapesAreConsistent) {
  CampaignSpec spec;
  spec.tasks = {"fibcall"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone};
  const CampaignResult campaign = run_campaign(spec, {});

  const std::string csv = report_csv(campaign);
  // Header + one line per job.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
            static_cast<long>(1 + campaign.results.size()));
  const std::string jsonl = report_jsonl(campaign);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'),
            static_cast<long>(campaign.results.size()));
  EXPECT_NE(jsonl.find("\"task\":\"fibcall\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"spta\""), std::string::npos);
}

std::vector<std::vector<std::string>> csv_rows(const std::string& csv) {
  std::vector<std::vector<std::string>> rows;
  std::size_t start = 0;
  while (start < csv.size()) {
    const std::size_t end = csv.find('\n', start);
    std::vector<std::string> cells;
    std::size_t cell = start;
    while (true) {
      const std::size_t comma = csv.find(',', cell);
      if (comma == std::string::npos || comma > end) {
        cells.push_back(csv.substr(cell, end - cell));
        break;
      }
      cells.push_back(csv.substr(cell, comma - cell));
      cell = comma + 1;
    }
    rows.push_back(std::move(cells));
    start = end + 1;
  }
  return rows;
}

TEST(ReportView, CellsRepeatTheArithmeticOnTheCampaignResult) {
  const SpecDocument doc = parse_spec(R"({
    "tasks": ["fibcall", "bs"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16},
                   {"sets": 8, "ways": 2, "line_bytes": 16}],
    "pfails": [1e-3],
    "mechanisms": ["none", "SRB"],
    "kinds": ["spta", "sim"],
    "simulation_chips": 40,
    "ccdf_exceedances": [1e-2, 1e-9],
    "view": {
      "rows": ["tasks", "geometries", "ccdf_exceedances"],
      "columns": [
        {"label": "ff", "value": "wcet_ff",
         "where": {"mechanisms": "none", "kinds": "spta"}},
        {"label": "srb", "value": "pwcet",
         "where": {"mechanisms": "SRB", "kinds": "spta"}},
        {"label": "sim/spta", "value": "observed_max",
         "where": {"mechanisms": "none", "kinds": "sim"},
         "divide_by": {"value": "pwcet",
                       "where": {"mechanisms": "none", "kinds": "spta"}}},
        {"label": "zero", "value": "wcet_ff",
         "where": {"mechanisms": "none", "kinds": "spta"},
         "divide_by": {"value": "observed_max",
                       "where": {"mechanisms": "none", "kinds": "spta"}}}
      ]
    }
  })", "<view>");
  ASSERT_TRUE(doc.view.has_value());
  const CampaignResult c = run_campaign(doc.spec);
  const std::vector<std::vector<std::string>> rows =
      csv_rows(render_view(c, *doc.view).to_csv());

  ASSERT_EQ(rows.size(), 1u + 2 * 2 * 2);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"task", "geometry",
                                               "exceedance", "ff", "srb",
                                               "sim/spta", "zero"}));
  std::size_t r = 1;
  for (std::size_t t = 0; t < 2; ++t)
    for (std::size_t g = 0; g < 2; ++g)
      for (std::size_t p = 0; p < 2; ++p, ++r) {
        // at(task, geometry, pfail, mechanism, engine, kind)
        const JobResult& none = c.at(t, g, 0, 0, 0, 0);
        const JobResult& srb = c.at(t, g, 0, 1, 0, 0);
        const JobResult& sim = c.at(t, g, 0, 0, 0, 1);
        const std::vector<std::string> expected = {
            doc.spec.tasks[t],
            std::to_string(doc.spec.geometries[g].sets) + "x" +
                std::to_string(doc.spec.geometries[g].ways) + "x16B",
            fmt_prob(doc.spec.ccdf_exceedances[p]),
            fmt_double(static_cast<double>(none.fault_free_wcet), 0),
            fmt_double(srb.curve[p], 0),
            fmt_double(sim.observed_max / none.curve[p], 3),
            "-"};  // an SPTA job observes nothing: zero divisor
        EXPECT_EQ(rows[r], expected) << "row " << r;
      }
}

}  // namespace
}  // namespace pwcet
