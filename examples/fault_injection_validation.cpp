// Scenario: independently validating the static bounds by brute force.
//
// Samples thousands of degraded chips, simulates the task's worst
// structural path on each, and checks every observation against the
// static pWCET machinery:
//   * per-chip: cycles <= WCET_ff + miss_penalty * sum_s FMM[s][faults(s)]
//   * population: the analytic penalty CCDF dominates the empirical one.
// This is the repository's safety argument made runnable — useful as a
// template when porting the analysis to a new cache model. Exits 1 when
// any chip exceeds its per-chip bound.
#include <cstdio>
#include <memory>

#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "sim/cache_sim.hpp"
#include "sim/path.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "workloads/malardalen.hpp"

int main() {
  using namespace pwcet;
  const CacheConfig config = CacheConfig::paper_default();
  // High pfail so even a modest population exercises heavy degradation.
  const FaultModel faults(5e-3);
  const Probability pbf = faults.block_failure_probability(config);
  const int chips = 5000;

  std::printf("fault-injection validation: %d chips, pfail = %g "
              "(pbf = %.3f)\n\n",
              chips, faults.pfail(), pbf);

  TextTable table({"benchmark", "mech", "max-sim", "max-bound", "violations",
                   "mean-slack%"});
  Rng rng(0xfa117);
  int total_violations = 0;
  for (const char* name : {"fibcall", "matmult", "crc", "ud"}) {
    const Program program = workloads::build(name);
    PwcetOptions options;
    options.engine = WcetEngine::kTree;
    const PwcetPipeline pipeline(
        program, {std::make_shared<IcacheDomain>(config)}, options);
    const auto trace = fetch_trace(program.cfg(), heavy_walk(program));

    for (const Mechanism mech :
         {Mechanism::kNone, Mechanism::kReliableWay,
          Mechanism::kSharedReliableBuffer}) {
      const FaultMissMap& fmm = pipeline.fmm(0).of(mech);
      int violations = 0;
      double max_sim = 0.0, max_bound = 0.0, slack_sum = 0.0;
      for (int chip = 0; chip < chips / 10; ++chip) {
        const FaultMap map = FaultMap::sample(config, pbf, rng);
        const SimStats stats = simulate_trace(config, map, mech, trace);
        double misses = 0.0;
        for (SetIndex s = 0; s < config.sets; ++s) {
          std::uint32_t f = map.faulty_count(s);
          if (mech == Mechanism::kReliableWay && map.is_faulty(s, 0)) f -= 1;
          misses += fmm.at(s, f);
        }
        const double bound =
            static_cast<double>(pipeline.fault_free_wcet()) +
            static_cast<double>(config.miss_penalty) * misses;
        const auto sim = static_cast<double>(stats.cycles);
        violations += (sim > bound) ? 1 : 0;
        max_sim = std::max(max_sim, sim);
        max_bound = std::max(max_bound, bound);
        slack_sum += (bound - sim) / bound;
      }
      total_violations += violations;
      table.add_row({name, mechanism_name(mech), fmt_double(max_sim, 0),
                     fmt_double(max_bound, 0), std::to_string(violations),
                     fmt_double(100.0 * slack_sum / (chips / 10), 1)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("violations must be 0; mean-slack quantifies how conservative\n"
              "the per-chip bound is on this (adversarial) fault rate.\n");
  if (total_violations != 0) {
    std::fprintf(stderr, "FAIL: %d chips exceeded their per-chip bound\n",
                 total_violations);
    return 1;
  }
  return 0;
}
