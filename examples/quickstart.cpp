// Quickstart: build a small task, run the pWCET analysis for all three
// hardware configurations, and print the 1e-15 pWCET estimates.
//
//   $ ./examples/quickstart
//
// This walks the exact pipeline of the paper: structured task -> fault-free
// WCET (cache analysis + IPET) -> FMM -> per-set penalty distributions ->
// convolution -> pWCET quantile.
#include <cstdio>
#include <memory>

#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "workloads/malardalen.hpp"

int main() {
  using namespace pwcet;

  // A 4-way, 16-set, 16 B-line, 1 KB LRU instruction cache; 1-cycle hits
  // and a 100-cycle miss penalty — the paper's configuration (§IV-A).
  const CacheConfig config = CacheConfig::paper_default();

  // Any structured task works; here, the matmult benchmark counterpart.
  const Program program = workloads::build("matmult");
  std::printf("task: %s (%zu basic blocks, %llu bytes of code)\n",
              program.name().c_str(), program.cfg().block_count(),
              static_cast<unsigned long long>(program.code_size_bytes()));

  // Pipeline over one instruction-cache domain: shared work
  // (classification, IPET, FMM) happens here once.
  const PwcetPipeline pipeline(program,
                               {std::make_shared<IcacheDomain>(config)});
  std::printf("fault-free WCET: %lld cycles\n\n",
              static_cast<long long>(pipeline.fault_free_wcet()));

  // pfail = 1e-4 (the paper's §IV-A cell failure probability) and the
  // aerospace exceedance target 1e-15 per activation.
  const FaultModel faults(1e-4);
  const Probability target = 1e-15;

  for (const Mechanism m : {Mechanism::kNone, Mechanism::kReliableWay,
                            Mechanism::kSharedReliableBuffer}) {
    const PwcetResult result = pipeline.analyze(faults, m);
    std::printf("%-5s pWCET@1e-15 = %10lld cycles  (penalty %lld)\n",
                mechanism_name(m).c_str(),
                static_cast<long long>(result.pwcet(target)),
                static_cast<long long>(result.pwcet(target) -
                                       result.fault_free_wcet));
  }
  return 0;
}
