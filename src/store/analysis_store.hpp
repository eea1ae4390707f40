/// \file
/// Facade over the two store tiers, shared by the analyzer and the
/// campaign engine.
///
/// The memo holds what a campaign reads back: what the compositions of
/// one task share, which only PwcetPipeline (analysis/pipeline.cpp) reads
/// and writes: each domain's age profile ("profile", the per-set Must/May
/// ages every classification and FMM column of a (task, domain) derives
/// from), each domain's tree-engine FMM bundle ("fmm"), and each domain
/// penalty and fold ("penalty"). The disk tier holds per-result penalty
/// distributions and whole-campaign reports (engine/runner.hpp's
/// load_campaign), which a later run in any process reads back. One
/// AnalysisStore instance serves a whole campaign. All methods are
/// thread-safe; pool workers use the store concurrently.
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

/// The memo keeps MemoCache::Config's default 4,096 entries.
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
