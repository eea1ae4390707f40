#include "store/merge.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "store/artifact_store.hpp"

namespace pwcet {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw StoreMergeError("cannot read artifact file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) throw StoreMergeError("cannot read artifact file " + path);
  return text.str();
}

}  // namespace

StoreMergeStats merge_artifact_dirs(const std::vector<std::string>& from,
                                    const std::string& into) {
  StoreMergeStats stats;
  for (const std::string& source_dir : from) {
    std::vector<CacheFile> files;
    try {
      files = list_cache_files(source_dir);
    } catch (const fs::filesystem_error& e) {
      throw StoreMergeError("cannot read store directory " + source_dir +
                            ": " + e.code().message());
    }
    for (const CacheFile& file : files) {
      if (file.type != ArtifactFile::kArtifact)
        continue;  // writer-crash debris or foreign file
      const std::string destination =
          (fs::path(into) / file.kind / file.name).string();
      // Resolving to the same file (merging a directory into itself) is
      // a no-op, not a self-collision.
      std::error_code ec;
      if (fs::equivalent(file.path, destination, ec)) continue;
      const std::string bytes = read_file(file.path);
      if (fs::exists(destination, ec)) {
        if (read_file(destination) != bytes)
          throw StoreMergeError(
              "store collision for key " + file.name.substr(0, 32) +
              " (kind " + file.kind + "): " + file.path + " and " +
              destination + " differ — equal keys must hold equal bytes");
        ++stats.identical;
        continue;
      }
      // A crash mid-copy leaves only debris the orphan sweep recognizes.
      if (!write_file_atomically(destination, bytes))
        throw StoreMergeError("cannot write " + destination + " (from " +
                              file.path + ")");
      ++stats.copied;
    }
  }
  return stats;
}

}  // namespace pwcet
