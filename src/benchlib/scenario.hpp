/// \file
/// Named benchmark scenarios for `pwcet bench run`.
///
/// Two families:
///   - `campaign.*` macro scenarios run the geometry-sweep and
///     pfail-sweep campaigns end to end (cold store, warm store, 3-way
///     shard runs + merge); their samples carry the full per-phase
///     breakdown from the obs span taxonomy (obs/phase.hpp) plus store and
///     engine counters, because the harness arms the MetricsRegistry
///     around every repetition. They are the campaign-scaling record:
///     `BENCH_perf_analysis_time.json` is their `bench run` report.
///   - `pipeline.*` / `micro.*` scenarios time one pipeline stage in a
///     fixed-iteration loop (reference extraction, classification,
///     maximization, FMM, the convolution tree, the full per-mechanism
///     analysis) so a diff can localize a regression below campaign
///     granularity.
///
/// Every scenario self-checks determinism where it applies (campaign
/// reports must not drift between repetitions — the body throws on
/// drift, failing the bench run loudly). Scenario state lives in the
/// returned closures: call `builtin_scenarios()` once per measurement
/// run so warm-store state never leaks between runs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "engine/campaign.hpp"

namespace pwcet::benchlib {

/// Execution knobs shared by all scenarios of one `bench run`.
struct ScenarioOptions {
  /// Worker threads for campaign scenarios (1 = deterministic serial
  /// timing, the comparable default).
  std::size_t threads = 1;
};

struct Scenario {
  std::string name;
  std::string description;
  /// Untimed one-shot preparation (build programs, warm the store).
  /// Runs before the first repetition; may be empty.
  std::function<void(const ScenarioOptions&)> setup;
  /// The timed body, run warmup + repetitions times.
  std::function<void(const ScenarioOptions&)> body;
};

/// A fresh set of the built-in scenarios (state captured per call).
std::vector<Scenario> builtin_scenarios();

/// The geometry-sweep campaign the `campaign.geometry_sweep.*` scenarios
/// measure: 4 tasks x 5 geometries x 1 pfail x 3 mechanisms = 60 jobs.
CampaignSpec geometry_sweep_spec();

/// The pfail-sweep campaign (specs/pfail_sweep.json's grid): 6 tasks x
/// 1 geometry x 7 pfails x 3 mechanisms = 126 jobs. The stress case for
/// the shared re-weighting bundle — every group holds 7 pfail-siblings
/// per mechanism — measured by `campaign.pfail_sweep.*` and
/// `campaign.shard_merge` and gated in CI via campaign.pfail_sweep.cold.
CampaignSpec pfail_sweep_spec();

}  // namespace pwcet::benchlib
