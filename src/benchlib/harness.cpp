#include "benchlib/harness.hpp"

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace pwcet::benchlib {

ScenarioSamples run_scenario(const std::string& name,
                             const BenchOptions& options,
                             const std::function<void()>& body) {
  // The harness owns the registry for the duration of the run: snapshots
  // must attribute to exactly one repetition, so it is cleared before
  // each one and left disabled + empty on return.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  ScenarioSamples out;
  out.name = name;
  out.samples.reserve(options.repetitions);

  const std::size_t total = options.warmup + options.repetitions;
  for (std::size_t rep = 0; rep < total; ++rep) {
    const bool measured = rep >= options.warmup;
    registry.clear();
    registry.enable();
    const std::uint64_t start_ns = obs::monotonic_ns();
    try {
      body();
    } catch (...) {
      registry.disable();
      registry.clear();
      throw;
    }
    const std::uint64_t wall_ns = obs::monotonic_ns() - start_ns;
    registry.disable();
    if (!measured) continue;

    RepetitionSample sample;
    sample.wall_ns = wall_ns;
    // The registry enumerates names in sorted order, as samples keep them.
    for (const obs::MetricsRegistry::NamedHistogram& h :
         registry.histograms()) {
      if (h.snapshot.count == 0) continue;
      sample.metrics.emplace_back(h.name, h.snapshot.sum_ns);
    }
    for (const auto& [counter, value] : registry.counters())
      if (value != 0) sample.counters.emplace_back(counter, value);
    out.samples.push_back(std::move(sample));
  }

  registry.disable();
  registry.clear();
  return out;
}

}  // namespace pwcet::benchlib
