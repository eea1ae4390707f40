#include "benchlib/scenario.hpp"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <tuple>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/tlb_domain.hpp"
#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "engine/shard.hpp"
#include "store/analysis_store.hpp"
#include "wcet/cost_model.hpp"
#include "wcet/ipet.hpp"
#include "wcet/tree_engine.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet::benchlib {

CampaignSpec geometry_sweep_spec() {
  CampaignSpec spec;
  spec.tasks = {"adpcm", "matmult", "crc", "fft"};
  for (const auto& [sets, ways, line] :
       {std::tuple{32u, 2u, 16u}, std::tuple{16u, 4u, 16u},
        std::tuple{8u, 8u, 16u}, std::tuple{32u, 4u, 8u},
        std::tuple{8u, 4u, 32u}}) {
    CacheConfig config;
    config.sets = sets;
    config.ways = ways;
    config.line_bytes = line;
    spec.geometries.push_back(config);
  }
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  return spec;
}

CampaignSpec pfail_sweep_spec() {
  // Mirrors specs/pfail_sweep.json (E3): the paper's geometry, the full
  // pfail ladder from the 45 nm literature value to the low-voltage
  // regime. Kept in lockstep with the JSON spec by tests/benchlib_test.
  CampaignSpec spec;
  spec.tasks = {"adpcm", "fibcall", "matmult", "crc", "fft", "ud"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {6.1e-13, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  spec.target_exceedance = 1e-15;
  return spec;
}

namespace {

/// Checks campaign-report identity across repetitions: the first
/// rendering is the baseline, later ones must match byte for byte (the
/// engine's determinism contract — a drift here means measurement and
/// correctness can no longer be trusted together).
struct IdentityCheck {
  std::string baseline;
  void check(const std::string& csv, const char* scenario) {
    if (baseline.empty()) {
      baseline = csv;
    } else if (baseline != csv) {
      throw std::runtime_error(std::string(scenario) +
                               ": campaign report drifted between "
                               "repetitions (determinism violation)");
    }
  }
};

/// Shared fixture for the micro scenarios: the adpcm task against the
/// paper-default geometry, with the derived stages precomputed so each
/// scenario times exactly one stage.
struct AdpcmFixture {
  Program program = workloads::build("adpcm");
  CacheConfig config = CacheConfig::paper_default();
  ReferenceMap refs = extract_references(program.cfg(), config);
  AgeProfile profile{program.cfg(), refs, config};
  ClassificationMap classification = classify_fault_free(profile);
  CostModel model =
      build_time_cost_model(program.cfg(), refs, classification, config);
};

/// Fixture for micro.convolve.tail: ud's per-set penalty distributions on
/// a 32x4x8 icache under no mechanism at the 45 nm pfail 6.1e-13, whose
/// tails fall below 2^-1022 — the convolution tree of spta_sweep's
/// slowest cells.
struct ConvolveTailFixture {
  std::vector<DiscreteDistribution> per_set;

  ConvolveTailFixture() {
    const Program program = workloads::build("ud");
    CacheConfig config;
    config.sets = 32;
    config.ways = 4;
    config.line_bytes = 8;
    PwcetOptions options;
    options.engine = WcetEngine::kTree;
    const PwcetPipeline pipeline(
        program, {std::make_shared<IcacheDomain>(config)}, options);
    const FaultMissMap& fmm = pipeline.fmm(0).of(Mechanism::kNone);
    const std::vector<Probability> pwf =
        FaultModel(6.1e-13).way_failure_pmf(config, Mechanism::kNone);
    for (const std::vector<double>& row : fmm.misses) {
      std::vector<ProbabilityAtom> atoms;
      for (std::size_t f = 0; f < pwf.size(); ++f)
        atoms.push_back({static_cast<Cycles>(
                             std::ceil(row[f] - 1e-6) *
                             static_cast<double>(config.miss_penalty)),
                         pwf[f]});
      per_set.push_back(DiscreteDistribution::from_atoms(std::move(atoms)));
    }
  }
};

/// Keeps the compiler from discarding a computed value (the benchlib
/// equivalent of benchmark::DoNotOptimize, without the dependency).
template <typename T>
void keep(T&& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

std::vector<Scenario> builtin_scenarios() {
  std::vector<Scenario> scenarios;

  // ---- macro: the geometry-sweep campaign --------------------------------
  {
    auto identity = std::make_shared<IdentityCheck>();
    scenarios.push_back(
        {"campaign.geometry_sweep.cold",
         "geometry-sweep campaign (60 jobs), fresh in-memory store per "
         "repetition",
         {},
         [identity](const ScenarioOptions& options) {
           AnalysisStore store;
           RunnerOptions runner;
           runner.threads = options.threads;
           runner.shared_store = &store;
           const CampaignResult result =
               run_campaign(geometry_sweep_spec(), runner);
           identity->check(report_csv(result),
                           "campaign.geometry_sweep.cold");
         }});
  }
  {
    auto store = std::make_shared<AnalysisStore>();
    auto identity = std::make_shared<IdentityCheck>();
    scenarios.push_back(
        {"campaign.geometry_sweep.warm",
         "same campaign answered from an already-hot shared store (memo "
         "hit path)",
         [store, identity](const ScenarioOptions& options) {
           RunnerOptions runner;
           runner.threads = options.threads;
           runner.shared_store = store.get();
           identity->check(
               report_csv(run_campaign(geometry_sweep_spec(), runner)),
               "campaign.geometry_sweep.warm");
         },
         [store, identity](const ScenarioOptions& options) {
           RunnerOptions runner;
           runner.threads = options.threads;
           runner.shared_store = store.get();
           const CampaignResult result =
               run_campaign(geometry_sweep_spec(), runner);
           identity->check(report_csv(result),
                           "campaign.geometry_sweep.warm");
         }});
  }

  // ---- macro: the pfail-sweep campaign -----------------------------------
  // The re-weighting stress case: 7 pfail points per (task, mechanism)
  // group share one bundle, so this scenario is dominated by phase.pwf +
  // the convolution fold — exactly the phases the CI gate injects into.
  {
    auto identity = std::make_shared<IdentityCheck>();
    scenarios.push_back(
        {"campaign.pfail_sweep.cold",
         "pfail-sweep campaign (126 jobs, 7 pfails/group), fresh in-memory "
         "store per repetition",
         {},
         [identity](const ScenarioOptions& options) {
           AnalysisStore store;
           RunnerOptions runner;
           runner.threads = options.threads;
           runner.shared_store = &store;
           const CampaignResult result =
               run_campaign(pfail_sweep_spec(), runner);
           identity->check(report_csv(result), "campaign.pfail_sweep.cold");
         }});
  }
  {
    auto store = std::make_shared<AnalysisStore>();
    auto identity = std::make_shared<IdentityCheck>();
    scenarios.push_back(
        {"campaign.pfail_sweep.warm",
         "same pfail sweep answered from an already-hot shared store (memo "
         "hit path)",
         [store, identity](const ScenarioOptions& options) {
           RunnerOptions runner;
           runner.threads = options.threads;
           runner.shared_store = store.get();
           identity->check(
               report_csv(run_campaign(pfail_sweep_spec(), runner)),
               "campaign.pfail_sweep.warm");
         },
         [store, identity](const ScenarioOptions& options) {
           RunnerOptions runner;
           runner.threads = options.threads;
           runner.shared_store = store.get();
           const CampaignResult result =
               run_campaign(pfail_sweep_spec(), runner);
           identity->check(report_csv(result),
                           "campaign.pfail_sweep.warm");
         }});
  }

  // ---- macro: distributed shard runs + merge ------------------------------
  // The pfail sweep split into 3 shard runs (each writing its fragment
  // into its own cache directory) plus the merge that reassembles and
  // unions them — the end-to-end cost of distributing this campaign.
  // Setup computes the single-process baseline once; every repetition's
  // merged report must reproduce those bytes exactly (the sharding
  // determinism contract, checked in the loop, not just in tests).
  {
    auto identity = std::make_shared<IdentityCheck>();
    scenarios.push_back(
        {"campaign.shard_merge",
         "pfail-sweep campaign as 3 shard runs into per-shard cache dirs "
         "+ merge with store union; merged report byte-checked against "
         "the single-process baseline",
         [identity](const ScenarioOptions& options) {
           AnalysisStore store;
           RunnerOptions runner;
           runner.threads = options.threads;
           runner.shared_store = &store;
           identity->check(
               report_csv(run_campaign(pfail_sweep_spec(), runner)),
               "campaign.shard_merge");
         },
         [identity](const ScenarioOptions& options) {
           namespace fs = std::filesystem;
           const fs::path root =
               fs::temp_directory_path() /
               ("pwcet_bench_shard_" + std::to_string(::getpid()));
           std::error_code ec;
           fs::remove_all(root, ec);  // cold cache dirs every repetition
           const CampaignSpec spec = pfail_sweep_spec();
           ShardMergeOptions merge;
           merge.shard_count = 3;
           for (std::size_t i = 0; i < merge.shard_count; ++i) {
             const std::string dir =
                 (root / ("shard" + std::to_string(i))).string();
             ShardSelector shard;
             shard.index = i;
             shard.count = merge.shard_count;
             RunnerOptions runner;
             runner.threads = options.threads;
             run_campaign_shard(spec, shard, runner, dir);
             merge.from_dirs.push_back(dir);
           }
           merge.into_dir = (root / "union").string();
           const ShardMergeOutcome merged =
               merge_campaign_shards(spec, merge);
           identity->check(report_csv(merged.campaign),
                           "campaign.shard_merge");
           fs::remove_all(root, ec);
         }});
  }

  // ---- pipeline: full analysis below campaign granularity ----------------
  {
    auto fixture = std::make_shared<AdpcmFixture>();
    scenarios.push_back(
        {"pipeline.full",
         "fresh icache pipeline + all three mechanisms on adpcm "
         "(3 iterations); "
         "samples carry the phase.* breakdown",
         {},
         [fixture](const ScenarioOptions&) {
           const FaultModel faults(1e-4);
           for (int i = 0; i < 3; ++i) {
             const PwcetPipeline pipeline(
                 fixture->program,
                 {std::make_shared<IcacheDomain>(fixture->config)});
             keep(pipeline.analyze(faults, Mechanism::kNone));
             keep(pipeline.analyze(faults, Mechanism::kReliableWay));
             keep(pipeline.analyze(faults, Mechanism::kSharedReliableBuffer));
           }
         }});
  }

  // ---- pipeline: three-domain composition (icache + dcache + TLB) --------
  {
    scenarios.push_back(
        {"pipeline.tlb",
         "3-domain pipeline (icache + dcache + tlb) + all three mechanisms "
         "on interp (3 iterations); exercises the ncore composition path",
         {},
         [](const ScenarioOptions&) {
           const Program program = workloads::build("interp");
           const CacheConfig icache = CacheConfig::paper_default();
           CacheConfig dcache = CacheConfig::paper_default();
           dcache.sets = 8;
           CacheConfig tlb;
           tlb.sets = 8;  // 16 entries, 2-way
           tlb.ways = 2;
           tlb.line_bytes = 64;  // page size
           tlb.hit_latency = 0;
           tlb.miss_penalty = 30;
           const FaultModel faults(1e-4);
           for (int i = 0; i < 3; ++i) {
             const PwcetPipeline pipeline(
                 program, {std::make_shared<IcacheDomain>(icache),
                           std::make_shared<DcacheDomain>(dcache),
                           std::make_shared<TlbDomain>(tlb)});
             for (const Mechanism mech :
                  {Mechanism::kNone, Mechanism::kReliableWay,
                   Mechanism::kSharedReliableBuffer}) {
               keep(pipeline.analyze(
                   faults, std::vector<Mechanism>{mech, mech, mech}));
             }
           }
         }});
  }

  // ---- micro: one stage each, fixed iteration counts ---------------------
  {
    auto fixture = std::make_shared<AdpcmFixture>();
    scenarios.push_back({"micro.extract",
                         "reference extraction on adpcm (100 iterations)",
                         {},
                         [fixture](const ScenarioOptions&) {
                           for (int i = 0; i < 100; ++i)
                             keep(extract_references(fixture->program.cfg(),
                                                     fixture->config));
                         }});
    scenarios.push_back(
        {"micro.classify",
         "age profile + fault-free CHMC classification on adpcm (100 "
         "iterations)",
         {},
         [fixture](const ScenarioOptions&) {
           for (int i = 0; i < 100; ++i)
             keep(classify_fault_free(AgeProfile(
                 fixture->program.cfg(), fixture->refs, fixture->config)));
         }});
    scenarios.push_back({"micro.maximize.tree",
                         "loop-tree WCET maximization on adpcm (100 "
                         "iterations)",
                         {},
                         [fixture](const ScenarioOptions&) {
                           for (int i = 0; i < 100; ++i)
                             keep(tree_maximize(fixture->program,
                                                fixture->model));
                         }});
    scenarios.push_back({"micro.maximize.ilp",
                         "IPET construction + simplex solve on adpcm (10 "
                         "iterations)",
                         {},
                         [fixture](const ScenarioOptions&) {
                           for (int i = 0; i < 10; ++i) {
                             IpetCalculator ipet(fixture->program);
                             keep(ipet.maximize(fixture->model));
                           }
                         }});
    scenarios.push_back(
        {"micro.fmm.tree",
         "per-set FMM bundle, tree engine, on adpcm (10 iterations)",
         {},
         [fixture](const ScenarioOptions&) {
           for (int i = 0; i < 10; ++i)
             keep(compute_fmm_bundle(fixture->program, fixture->config,
                                     fixture->refs, fixture->profile,
                                     WcetEngine::kTree, nullptr));
         }});
  }

  {
    auto fixture = std::make_shared<ConvolveTailFixture>();
    scenarios.push_back(
        {"micro.convolve.tail",
         "pairwise convolution tree of ud's per-set penalties, 32x4x8 "
         "icache, no mechanism, pfail 6.1e-13 (5 trees)",
         {},
         [fixture](const ScenarioOptions&) {
           for (int i = 0; i < 5; ++i)
             keep(convolve_all_tree(fixture->per_set, 2048));
         }});
  }

  return scenarios;
}

}  // namespace pwcet::benchlib
