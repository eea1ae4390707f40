/// \file
/// Facade over the two store tiers, shared by the analyzer and the
/// campaign engine.
///
/// One AnalysisStore instance serves a whole campaign (and, if the caller
/// keeps it alive, any number of campaigns — that is how the
/// `campaign.*.warm` bench scenarios measure warm re-runs). All methods
/// are thread-safe; pool workers use the store concurrently.
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

struct StoreOptions {
  /// Master switch; disabled means no store object exists at all.
  bool enabled = true;
  std::size_t capacity = 4096;  ///< memo entries kept (LRU beyond that)
  std::size_t shards = 8;       ///< memo lock partitions
  /// Cache directory for the on-disk artifact tier; empty keeps the store
  /// purely in-memory (no file I/O).
  std::string artifact_dir;
};

/// The environment fallback run_campaign applies to its own store:
/// `PWCET_CACHE_DIR=<dir>` enables the artifact tier when `base` is
/// enabled and names no directory itself.
StoreOptions store_options_from_env(StoreOptions base = {});

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
