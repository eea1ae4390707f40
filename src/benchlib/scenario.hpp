/// \file
/// Named benchmark scenarios for `pwcet bench run`.
///
/// Two families:
///   - `campaign.<stem>.*` scenarios run a spec file end to end on the
///     paths `pwcet run` and `pwcet merge` take, three per spec:
///     `.cold` on a fresh in-memory store per repetition, `.warm` on a
///     fresh store over a cache directory the scenario filled once, and
///     `.shard_merge` as 3 shard runs, each on its own fresh cache
///     directory, then a merge into a union directory. Their samples carry
///     the full per-phase breakdown from the obs span taxonomy
///     (obs/phase.hpp) plus store and engine counters, because the
///     harness arms the MetricsRegistry around every repetition. They are
///     the campaign-scaling record: `BENCH_perf_analysis_time.json` is
///     their `bench run` report over `specs/*.json`.
///   - `pipeline.*` / `micro.*` scenarios time one pipeline stage in a
///     fixed-iteration loop (reference extraction, classification,
///     maximization, FMM, the convolution tree, the full per-mechanism
///     analysis) so a diff can localize a regression below campaign
///     granularity.
///
/// A spec's three campaign scenarios byte-check every report against one
/// baseline (the body throws on drift, failing the bench run loudly). None
/// reads PWCET_CACHE_DIR: their directories live under the system temp
/// directory and are removed with the scenarios. Scenario state lives in
/// the returned closures: call `builtin_scenarios()` once per measurement
/// run.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

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
  /// Untimed one-shot preparation (fill a warm cache directory). Runs
  /// before the first repetition; may be empty.
  std::function<void(const ScenarioOptions&)> setup;
  /// The timed body, run warmup + repetitions times.
  std::function<void(const ScenarioOptions&)> body;
};

/// A fresh set of the built-in scenarios (state captured per call): the
/// three campaign scenarios of each spec file, named by its stem, then
/// the pipeline and micro scenarios.
/// \throws SpecError when a spec does not load, std::invalid_argument when
/// two spec files share a stem.
std::vector<Scenario> builtin_scenarios(
    const std::vector<std::string>& spec_paths = {});

}  // namespace pwcet::benchlib
