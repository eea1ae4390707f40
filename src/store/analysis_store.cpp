#include "store/analysis_store.hpp"

#include <cstdlib>

namespace pwcet {

std::string cache_dir_from_env() {
  const char* dir = std::getenv("PWCET_CACHE_DIR");
  return dir != nullptr ? dir : "";
}

AnalysisStore::AnalysisStore(const StoreOptions& options) {
  if (!options.artifact_dir.empty())
    artifacts_ = std::make_unique<ArtifactStore>(options.artifact_dir);
}

StoreStats AnalysisStore::stats() const {
  StoreStats stats = memo_.stats();
  if (artifacts_ != nullptr) {
    stats.disk_hits = artifacts_->disk_hits();
    stats.disk_misses = artifacts_->disk_misses();
    stats.disk_writes = artifacts_->disk_writes();
  }
  return stats;
}

}  // namespace pwcet
