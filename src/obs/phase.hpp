/// \file
/// The span/metric taxonomy of the analysis pipeline and campaign engine,
/// plus ScopedPhase — the one-line probe instrumentation sites use.
///
/// Names are defined centrally so the pipeline, the CLI's `--profile`
/// table, the bench samples' per-phase breakdown, the tests and the CI
/// validator all agree on the exact strings; see docs/observability.md
/// for what each one measures.
#pragma once

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace pwcet::obs {

/// Span + histogram names of the pWCET pipeline phases
/// (analysis/pipeline.cpp), in execution order.
namespace phase_name {
/// Whole pipeline core: extract..fmm under one span.
inline constexpr const char* kCore = "pipeline.core";
/// Per-domain reference extraction against the cache geometry.
inline constexpr const char* kExtract = "phase.extract";
/// Per-domain age profiles, fault-free CHMC classification + per-domain
/// time cost models.
inline constexpr const char* kClassify = "phase.classify";
/// Phase-1 maximization of the summed model (IPET or loop tree).
inline constexpr const char* kMaximize = "phase.maximize";
/// Per-set FMM bundles (delta maximizations), all domains.
inline constexpr const char* kFmm = "phase.fmm";
/// One mechanisms x pfail analysis (analyze()).
inline constexpr const char* kAnalyze = "pipeline.analyze";
/// pwf weighting vectors (Eq. 2/3) for every domain.
inline constexpr const char* kPwf = "phase.pwf";
/// Pfail-independent penalty scaffold (bundle) build, once per
/// mechanism assignment of a pipeline.
inline constexpr const char* kBundle = "phase.bundle";
/// Per-set penalty distributions + their cross-set convolution.
inline constexpr const char* kPenalty = "phase.penalty";
/// The fixed-shape pairwise convolution tree inside kPenalty.
inline constexpr const char* kConvolve = "phase.convolve";
/// One cross-domain fold step: convolve the running penalty with the next
/// domain's and coalesce (domains - 1 per analysis, none for one domain;
/// with a store, none for a memoized step or one with the point mass at
/// zero on either side).
inline constexpr const char* kFold = "phase.fold";
}  // namespace phase_name

/// Span names of the campaign engine (engine/runner.cpp).
namespace engine_name {
inline constexpr const char* kCampaign = "campaign.run";
/// Whole-campaign lookup (spec key, memo, then disk) before any job runs.
inline constexpr const char* kWarmLoad = "campaign.warm_load";
/// One analyzer group (jobs sharing task/geometry/engine/dcache).
inline constexpr const char* kGroup = "engine.group";
/// One campaign job; the kind is attached as a span arg.
inline constexpr const char* kJob = "engine.job";
/// One queued pool task, as executed by a worker or a helping waiter.
inline constexpr const char* kPoolTask = "pool.task";
}  // namespace engine_name

/// RAII phase probe: one Chrome-trace span plus one duration-histogram
/// sample under the same name. Both sinks are independently gated; with
/// both disabled the probe costs two relaxed loads and never reads the
/// clock.
class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name, const char* categories = "phase")
      : name_(name), categories_(categories) {
    tracing_ = Tracer::instance().enabled();
    metrics_ = MetricsRegistry::instance().enabled();
    if (tracing_ || metrics_) start_ns_ = monotonic_ns();
  }

  ~ScopedPhase() {
    if (!tracing_ && !metrics_) return;
    const std::uint64_t end_ns = monotonic_ns();
    if (tracing_)
      Tracer::instance().record(
          {name_, categories_, start_ns_, end_ns - start_ns_, {}});
    if (metrics_)
      MetricsRegistry::instance().observe_ns(name_, end_ns - start_ns_);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  const char* name_;
  const char* categories_;
  std::uint64_t start_ns_ = 0;
  bool tracing_ = false;
  bool metrics_ = false;
};

}  // namespace pwcet::obs
