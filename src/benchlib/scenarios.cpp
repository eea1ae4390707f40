#include "benchlib/scenario.hpp"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <system_error>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/tlb_domain.hpp"
#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "engine/shard.hpp"
#include "engine/spec_io.hpp"
#include "store/analysis_store.hpp"
#include "wcet/cost_model.hpp"
#include "wcet/ipet.hpp"
#include "wcet/tree_engine.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet::benchlib {

namespace {

namespace fs = std::filesystem;

/// The way a campaign scenario runs its spec, each one a path of
/// `pwcet run` or `pwcet merge`.
enum class CampaignPath {
  kCold,        ///< fresh in-memory store: `pwcet run` without a cache dir
  kWarm,        ///< fresh store on a filled cache dir: a second run
  kShardMerge,  ///< `run --shard i/3 --cache-dir Di`, then `merge --into`
};

/// One spec's campaign scenarios: the spec, the directory their caches
/// live in, and the report bytes every repetition must reproduce.
struct SpecCampaign {
  std::string stem;
  CampaignSpec spec;
  /// Under the system temp directory, never PWCET_CACHE_DIR; removed with
  /// everything in it when the last scenario of the spec goes.
  fs::path dir;
  /// The first report rendered; later ones must match it byte for byte
  /// (the engine's determinism contract — a drift here means measurement
  /// and correctness can no longer be trusted together).
  std::string baseline;

  SpecCampaign(std::string stem_, CampaignSpec spec_)
      : stem(std::move(stem_)),
        spec(std::move(spec_)),
        dir(fs::temp_directory_path() /
            ("pwcet_bench_" + std::to_string(::getpid()) + "_" + stem)) {}
  ~SpecCampaign() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  SpecCampaign(const SpecCampaign&) = delete;
  SpecCampaign& operator=(const SpecCampaign&) = delete;

  std::string warm_dir() const { return (dir / "warm").string(); }

  void check(const CampaignResult& result, const std::string& scenario) {
    const std::string report =
        report_jsonl(result) + report_dist_jsonl(result);
    if (baseline.empty()) {
      baseline = report;
    } else if (baseline != report) {
      throw std::runtime_error(scenario +
                               ": campaign report drifted from the "
                               "spec's baseline (determinism violation)");
    }
  }

  /// The one body of the spec's three scenarios: runs the campaign on
  /// `path` and byte-checks its report.
  void run(CampaignPath path, std::size_t threads,
           const std::string& scenario) {
    RunnerOptions runner;
    runner.threads = threads;
    CampaignResult result;
    switch (path) {
      case CampaignPath::kCold: {
        AnalysisStore store;
        runner.shared_store = &store;
        result = run_campaign(spec, runner);
        break;
      }
      case CampaignPath::kWarm:
        runner.store.artifact_dir = warm_dir();
        result = run_campaign(spec, runner);
        break;
      case CampaignPath::kShardMerge: {
        const fs::path root = dir / "shards";
        std::error_code ec;
        fs::remove_all(root, ec);  // every shard starts on an empty dir
        ShardMergeOptions merge;
        merge.shard_count = 3;
        for (std::size_t i = 0; i < merge.shard_count; ++i) {
          const std::string shard_dir =
              (root / ("shard" + std::to_string(i))).string();
          runner.store.artifact_dir = shard_dir;
          run_campaign_shard(spec, ShardSelector{i, merge.shard_count},
                             runner, shard_dir);
          merge.from_dirs.push_back(shard_dir);
        }
        merge.into_dir = (root / "union").string();
        result = merge_campaign_shards(spec, merge).campaign;
        break;
      }
    }
    check(result, scenario);
  }
};

/// The three campaign scenarios of one spec.
void add_campaign_scenarios(std::vector<Scenario>& scenarios,
                            const std::shared_ptr<SpecCampaign>& campaign) {
  const std::string prefix = "campaign." + campaign->stem;
  const std::string jobs =
      " (" + std::to_string(campaign->spec.job_count()) + " jobs)";
  const auto body = [campaign](CampaignPath path, std::string name) {
    return [campaign, path, name](const ScenarioOptions& options) {
      campaign->run(path, options.threads, name);
    };
  };
  scenarios.push_back(
      {prefix + ".cold",
       campaign->stem + jobs + ", fresh in-memory store per repetition",
       {},
       body(CampaignPath::kCold, prefix + ".cold")});
  scenarios.push_back(
      {prefix + ".warm",
       campaign->stem + jobs +
           " from a cache dir filled once, fresh store per repetition",
       // The first warm run, on an empty directory, computes and fills it.
       [campaign, name = prefix + ".warm"](const ScenarioOptions& options) {
         std::error_code ec;
         fs::remove_all(campaign->warm_dir(), ec);
         campaign->run(CampaignPath::kWarm, options.threads, name);
       },
       body(CampaignPath::kWarm, prefix + ".warm")});
  scenarios.push_back(
      {prefix + ".shard_merge",
       campaign->stem + jobs +
           " as 3 shard runs on fresh cache dirs, then merge --into",
       {},
       body(CampaignPath::kShardMerge, prefix + ".shard_merge")});
}

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

std::vector<Scenario> builtin_scenarios(
    const std::vector<std::string>& spec_paths) {
  std::vector<Scenario> scenarios;

  // ---- campaign: three scenarios per spec file ---------------------------
  std::set<std::string> stems;
  for (const std::string& path : spec_paths) {
    const std::string stem = fs::path(path).stem().string();
    if (!stems.insert(stem).second)
      throw std::invalid_argument(
          "two spec files have the stem '" + stem + "' (" + path +
          " is the second); their campaign scenarios would share names");
    add_campaign_scenarios(
        scenarios,
        std::make_shared<SpecCampaign>(stem, load_spec(path).spec));
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
