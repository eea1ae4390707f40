/// \file
/// Facade over the two store tiers, shared by the analyzer and the
/// campaign engine.
///
/// The memo holds what a campaign reads back: a multi-domain
/// composition's domain penalties and folds ("penalty",
/// analysis/pipeline.cpp) and its domains' age profiles ("profile", the
/// per-set Must/May ages every classification and FMM column of a
/// (task, domain) derives from), the tree engine's per-set FMM rows
/// ("fmm-rows") and whole campaigns ("campaign", engine/runner.hpp's
/// load_campaign). The disk tier holds per-result penalty distributions
/// and whole-campaign reports. One AnalysisStore instance serves a whole
/// campaign (and, if the caller keeps it alive, any number of campaigns —
/// that is how the `campaign.*.warm` bench scenarios measure warm
/// re-runs). All methods are thread-safe; pool workers use the store
/// concurrently.
///
/// Determinism: the store only ever returns bits some earlier invocation
/// of the *same deterministic computation on the same inputs* produced, so
/// enabling it cannot change a single byte of any report — enforced by
/// tests/store_test.cpp (store on vs off, single- vs multi-threaded, cold
/// vs warm disk cache).
#pragma once

#include <memory>
#include <string>

#include "store/artifact_store.hpp"
#include "store/memo_cache.hpp"

namespace pwcet {

/// The memo keeps MemoCache::Config's default 4,096 entries in 8 shards.
struct StoreOptions {
  /// Master switch; disabled means no store object exists at all.
  bool enabled = true;
  /// Cache directory for the on-disk artifact tier; empty keeps the store
  /// purely in-memory (no file I/O).
  std::string artifact_dir;
};

/// The cache directory `PWCET_CACHE_DIR` names, or empty when it is unset
/// or empty — the toolchain's one environment read, the fallback of every
/// `--cache-dir`.
std::string cache_dir_from_env();

class AnalysisStore {
 public:
  explicit AnalysisStore(const StoreOptions& options = {});

  MemoCache& memo() { return memo_; }

  /// nullptr when the artifact tier is off (no cache directory).
  ArtifactStore* artifacts() { return artifacts_.get(); }

  /// Combined counters of both tiers.
  StoreStats stats() const;

 private:
  MemoCache memo_;
  std::unique_ptr<ArtifactStore> artifacts_;
};

}  // namespace pwcet
