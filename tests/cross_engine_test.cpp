// Cross-engine property tests: the IPET (shared-simplex LP) and the
// structural tree engine must agree on collapsible (structured) CFGs —
// which every generated program and every shipped workload is — across
// the full campaign axis set: data-cache on/off, mechanism pairings,
// distribution mode, at 1 and N worker threads, store on or off.
//
// "Agree" is tight: both engines ceil an integral time model, so their
// pWCET quantiles may differ by at most one cycle of LP round-off guard,
// never by a whole miss.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/l2_domain.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/tlb_domain.hpp"
#include "analysis/writeback_dcache_domain.hpp"
#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "support/rng.hpp"
#include "workloads/malardalen.hpp"
#include "workloads/random_program.hpp"

namespace pwcet {
namespace {

/// One cycle of slack: both engines ceil the same integral model, and the
/// ceil's 1e-6 guard absorbs LP round-off, so anything beyond a single
/// cycle is a real disagreement.
void expect_cycle_equal(double a, double b, const std::string& what) {
  EXPECT_LE(std::abs(a - b), 1.0 + 1e-9 * std::max(std::abs(a), std::abs(b)))
      << what << ": ilp=" << a << " tree=" << b;
}

class CrossEngineRandomTest : public ::testing::TestWithParam<int> {
 protected:
  Program make_program(bool with_data_loads) {
    workloads::RandomProgramParams params;
    params.max_heavy_fetches = 50000;
    if (with_data_loads) params.max_data_loads = 4;
    Rng rng(0xe7612e00 + static_cast<std::uint64_t>(GetParam()));
    return workloads::random_program(rng, params);
  }
};

TEST_P(CrossEngineRandomTest, SingleCachePwcetAgrees) {
  const Program p = make_program(false);
  const CacheConfig c = CacheConfig::paper_default();
  PwcetOptions ilp_options, tree_options;
  ilp_options.engine = WcetEngine::kIlp;
  tree_options.engine = WcetEngine::kTree;
  const PwcetPipeline via_ilp(p, {std::make_shared<IcacheDomain>(c)},
                              ilp_options);
  const PwcetPipeline via_tree(p, {std::make_shared<IcacheDomain>(c)},
                               tree_options);
  expect_cycle_equal(static_cast<double>(via_ilp.fault_free_wcet()),
                     static_cast<double>(via_tree.fault_free_wcet()),
                     "fault-free WCET");
  const FaultModel faults(1e-4);
  for (const Mechanism mech :
       {Mechanism::kNone, Mechanism::kReliableWay,
        Mechanism::kSharedReliableBuffer}) {
    const auto ilp = via_ilp.analyze(faults, mech);
    const auto tree = via_tree.analyze(faults, mech);
    for (const Probability target : {1e-6, 1e-12, 1e-15})
      expect_cycle_equal(static_cast<double>(ilp.pwcet(target)),
                         static_cast<double>(tree.pwcet(target)),
                         "pwcet " + mechanism_name(mech));
  }
}

TEST_P(CrossEngineRandomTest, CombinedDcachePwcetAgrees) {
  const Program p = make_program(true);
  const CacheConfig ic = CacheConfig::paper_default();
  CacheConfig dc;
  dc.sets = 8;  // 512 B D-cache (the E8 split)
  PwcetOptions ilp_options, tree_options;
  ilp_options.engine = WcetEngine::kIlp;
  tree_options.engine = WcetEngine::kTree;
  const PwcetPipeline via_ilp(p,
                              {std::make_shared<IcacheDomain>(ic),
                               std::make_shared<DcacheDomain>(dc)},
                              ilp_options);
  const PwcetPipeline via_tree(p,
                               {std::make_shared<IcacheDomain>(ic),
                                std::make_shared<DcacheDomain>(dc)},
                               tree_options);
  expect_cycle_equal(static_cast<double>(via_ilp.fault_free_wcet()),
                     static_cast<double>(via_tree.fault_free_wcet()),
                     "combined fault-free WCET");
  const FaultModel faults(1e-4);
  // The E8 deployments, mixed one included.
  const std::pair<Mechanism, Mechanism> deployments[] = {
      {Mechanism::kNone, Mechanism::kNone},
      {Mechanism::kSharedReliableBuffer, Mechanism::kSharedReliableBuffer},
      {Mechanism::kReliableWay, Mechanism::kSharedReliableBuffer},
      {Mechanism::kReliableWay, Mechanism::kReliableWay},
  };
  for (const auto& [imech, dmech] : deployments) {
    const auto ilp = via_ilp.analyze(faults, {imech, dmech});
    const auto tree = via_tree.analyze(faults, {imech, dmech});
    expect_cycle_equal(static_cast<double>(ilp.pwcet(1e-15)),
                       static_cast<double>(tree.pwcet(1e-15)),
                       mechanism_name(imech) + "/" + mechanism_name(dmech));
  }
}

TEST_P(CrossEngineRandomTest, TripleDomainPipelinePwcetAgrees) {
  // The new production domains (write-back dcache, TLB, shared L2)
  // composed through the generic pipeline must agree across engines just
  // like the legacy analyzers do.
  workloads::RandomProgramParams params;
  params.max_heavy_fetches = 50000;
  params.max_data_loads = 4;
  params.max_data_stores = 3;
  Rng rng(0x3d0a1000 + static_cast<std::uint64_t>(GetParam()));
  const Program p = workloads::random_program(rng, params);

  const CacheConfig ic = CacheConfig::paper_default();
  CacheConfig dc;
  dc.sets = 8;
  CacheConfig tlb;
  tlb.sets = 8;
  tlb.ways = 2;
  tlb.line_bytes = 64;  // page size
  tlb.hit_latency = 0;
  tlb.miss_penalty = 30;
  CacheConfig l2;
  l2.sets = 32;
  l2.ways = 4;
  l2.line_bytes = 32;
  l2.hit_latency = 0;
  l2.miss_penalty = 60;

  const auto domains = [&] {
    return std::vector<std::shared_ptr<const CacheDomain>>{
        std::make_shared<IcacheDomain>(ic),
        std::make_shared<WritebackDcacheDomain>(dc, 25),
        std::make_shared<TlbDomain>(tlb), std::make_shared<L2Domain>(l2)};
  };
  PwcetOptions ilp_options, tree_options;
  ilp_options.engine = WcetEngine::kIlp;
  tree_options.engine = WcetEngine::kTree;
  const PwcetPipeline via_ilp(p, domains(), ilp_options);
  const PwcetPipeline via_tree(p, domains(), tree_options);
  expect_cycle_equal(static_cast<double>(via_ilp.fault_free_wcet()),
                     static_cast<double>(via_tree.fault_free_wcet()),
                     "pipeline fault-free WCET");
  const FaultModel faults(1e-4);
  for (const Mechanism mech :
       {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
        Mechanism::kReliableWay}) {
    const std::vector<Mechanism> mechanisms(4, mech);
    const auto ilp = via_ilp.analyze(faults, mechanisms);
    const auto tree = via_tree.analyze(faults, mechanisms);
    for (const Probability target : {1e-6, 1e-15})
      expect_cycle_equal(static_cast<double>(ilp.pwcet(target)),
                         static_cast<double>(tree.pwcet(target)),
                         "pipeline pwcet " + mechanism_name(mech));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineRandomTest,
                         ::testing::Range(0, 10));

/// Campaign-level agreement across every new axis (dcache on/off,
/// mechanism pairing, distribution mode), plus the determinism contract:
/// the whole report — scalar and distribution sink — is byte-identical at
/// 1 and N threads, store on or off.
TEST(CrossEngineCampaign, EnginesAgreeAcrossAllAxesAtAnyThreadCount) {
  CampaignSpec spec;
  spec.tasks = {"fibcall", "interp"};
  spec.geometries = {CacheConfig::paper_default()};
  DcacheAxis dcache_on;
  dcache_on.enabled = true;
  dcache_on.geometry.sets = 8;
  spec.dcaches = {DcacheAxis{}, dcache_on};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  spec.dcache_mechanisms = {DcacheMechanism::kSame,
                            DcacheMechanism::kSharedReliableBuffer};
  spec.engines = {WcetEngine::kIlp, WcetEngine::kTree};
  spec.ccdf_exceedances = {1e-6, 1e-15};

  RunnerOptions one_thread;
  one_thread.threads = 1;
  const CampaignResult reference = run_campaign(spec, one_thread);
  const std::string csv = report_csv(reference);
  const std::string dist_csv = report_dist_csv(reference);

  RunnerOptions many_threads;
  many_threads.threads = 4;
  const CampaignResult parallel = run_campaign(spec, many_threads);
  EXPECT_EQ(report_csv(parallel), csv);
  EXPECT_EQ(report_dist_csv(parallel), dist_csv);

  RunnerOptions no_store;
  no_store.threads = 4;
  no_store.store.enabled = false;
  const CampaignResult cold = run_campaign(spec, no_store);
  EXPECT_EQ(report_csv(cold), csv);
  EXPECT_EQ(report_dist_csv(cold), dist_csv);

  // Engine-pair agreement on every cell (engines axis: ilp = 0, tree = 1).
  for (std::size_t t = 0; t < spec.tasks.size(); ++t)
    for (std::size_t m = 0; m < spec.mechanisms.size(); ++m)
      for (std::size_t d = 0; d < spec.dcaches.size(); ++d)
        for (std::size_t dm = 0; dm < spec.dcache_mechanisms.size(); ++dm) {
          const JobResult& ilp = reference.at(t, 0, 0, m, 0, 0, d, dm);
          const JobResult& tree = reference.at(t, 0, 0, m, 1, 0, d, dm);
          expect_cycle_equal(ilp.pwcet, tree.pwcet, ilp.job.id());
          expect_cycle_equal(static_cast<double>(ilp.fault_free_wcet),
                             static_cast<double>(tree.fault_free_wcet),
                             ilp.job.id());
          ASSERT_EQ(ilp.curve.size(), tree.curve.size());
          for (std::size_t i = 0; i < ilp.curve.size(); ++i)
            expect_cycle_equal(ilp.curve[i], tree.curve[i],
                               ilp.job.id() + " curve");
        }
}

/// The same campaign-level contract over the NEW axes: write-back data
/// cache, TLB and shared L2 cells (all routed through the generic
/// pipeline path in the runner), byte-identical across thread counts and
/// with the store off, with ilp/tree agreement on every cell.
TEST(CrossEngineCampaign, NewDomainAxesAgreeAndStayDeterministic) {
  CampaignSpec spec;
  spec.tasks = {"fibcall", "ringbuf"};
  spec.geometries = {CacheConfig::paper_default()};
  DcacheAxis wb_dcache;
  wb_dcache.enabled = true;
  wb_dcache.geometry.sets = 8;
  wb_dcache.policy = WritePolicy::kWriteBack;
  wb_dcache.writeback_penalty = 25;
  spec.dcaches = {DcacheAxis{}, wb_dcache};
  TlbAxis tlb_on;
  tlb_on.enabled = true;
  tlb_on.entries = 16;
  tlb_on.ways = 2;
  tlb_on.page_bytes = 64;
  spec.tlbs = {TlbAxis{}, tlb_on};
  L2Axis l2_on;
  l2_on.enabled = true;
  l2_on.geometry.sets = 32;
  l2_on.geometry.line_bytes = 32;
  l2_on.geometry.hit_latency = 0;
  l2_on.geometry.miss_penalty = 60;
  spec.l2s = {L2Axis{}, l2_on};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer};
  spec.engines = {WcetEngine::kIlp, WcetEngine::kTree};
  spec.ccdf_exceedances = {1e-6, 1e-15};

  RunnerOptions one_thread;
  one_thread.threads = 1;
  const CampaignResult reference = run_campaign(spec, one_thread);
  const std::string csv = report_csv(reference);
  const std::string dist_csv = report_dist_csv(reference);

  RunnerOptions many_threads;
  many_threads.threads = 4;
  const CampaignResult parallel = run_campaign(spec, many_threads);
  EXPECT_EQ(report_csv(parallel), csv);
  EXPECT_EQ(report_dist_csv(parallel), dist_csv);

  RunnerOptions no_store;
  no_store.threads = 4;
  no_store.store.enabled = false;
  const CampaignResult cold = run_campaign(spec, no_store);
  EXPECT_EQ(report_csv(cold), csv);
  EXPECT_EQ(report_dist_csv(cold), dist_csv);

  for (std::size_t t = 0; t < spec.tasks.size(); ++t)
    for (std::size_t m = 0; m < spec.mechanisms.size(); ++m)
      for (std::size_t d = 0; d < spec.dcaches.size(); ++d)
        for (std::size_t tl = 0; tl < spec.tlbs.size(); ++tl)
          for (std::size_t l2 = 0; l2 < spec.l2s.size(); ++l2) {
            const JobResult& ilp =
                reference.at(t, 0, 0, m, 0, 0, d, 0, 0, tl, l2);
            const JobResult& tree =
                reference.at(t, 0, 0, m, 1, 0, d, 0, 0, tl, l2);
            expect_cycle_equal(ilp.pwcet, tree.pwcet, ilp.job.id());
            expect_cycle_equal(static_cast<double>(ilp.fault_free_wcet),
                               static_cast<double>(tree.fault_free_wcet),
                               ilp.job.id());
            // Faulty hardware can only add time: enabling a TLB or L2
            // axis must never lower the bound of the same cell.
            ASSERT_EQ(ilp.curve.size(), tree.curve.size());
            for (std::size_t i = 0; i < ilp.curve.size(); ++i)
              expect_cycle_equal(ilp.curve[i], tree.curve[i],
                                 ilp.job.id() + " curve");
            if (tl > 0 || l2 > 0) {
              const JobResult& base =
                  reference.at(t, 0, 0, m, 0, 0, d, 0, 0, 0, 0);
              EXPECT_GE(ilp.pwcet, base.pwcet) << ilp.job.id();
            }
          }
}

}  // namespace
}  // namespace pwcet
