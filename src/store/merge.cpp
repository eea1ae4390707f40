#include "store/merge.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "store/artifact_store.hpp"

namespace pwcet {
namespace {

namespace fs = std::filesystem;

std::atomic<std::uint64_t> merge_temp_counter{0};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw StoreMergeError("cannot read artifact file " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad())
    throw StoreMergeError("cannot read artifact file " + path.string());
  return text.str();
}

/// Copies one artifact into place atomically (same temp-name scheme as
/// ArtifactStore::store_text, so a crash here leaves only debris the
/// orphan sweep recognizes).
void copy_artifact(const fs::path& source, const fs::path& destination,
                   const std::string& bytes) {
  std::error_code ec;
  fs::create_directories(destination.parent_path(), ec);
  if (ec)
    throw StoreMergeError("cannot create " +
                          destination.parent_path().string() + ": " +
                          ec.message());
  std::string temp = destination.string();
  temp += ".tmp";
  temp += std::to_string(::getpid());
  temp += '.';
  temp += std::to_string(
      merge_temp_counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    out << bytes;
    out.close();
    if (out.fail()) {
      fs::remove(temp, ec);
      throw StoreMergeError("cannot write " + destination.string() +
                            " (from " + source.string() + ")");
    }
  }
  fs::rename(temp, destination, ec);
  if (ec) {
    std::error_code cleanup;
    fs::remove(temp, cleanup);
    throw StoreMergeError("cannot write " + destination.string() + ": " +
                          ec.message());
  }
}

}  // namespace

StoreMergeStats merge_artifact_dirs(const std::vector<std::string>& from,
                                    const std::string& into) {
  StoreMergeStats stats;
  std::error_code ec;
  const fs::path destination_root = fs::path(into);
  for (const std::string& source_dir : from) {
    if (!fs::exists(source_dir, ec)) continue;
    // Artifacts live exactly one level deep: <kind>/<key>.jsonl. A flat
    // two-level walk (rather than a recursive one) keeps foreign files in
    // creatively nested directories out of the union.
    fs::directory_iterator kinds(source_dir, ec);
    if (ec)
      throw StoreMergeError("cannot read store directory " + source_dir +
                            ": " + ec.message());
    for (const fs::directory_entry& kind_entry : kinds) {
      if (!kind_entry.is_directory(ec)) continue;
      fs::directory_iterator files(kind_entry.path(), ec);
      if (ec)
        throw StoreMergeError("cannot read " + kind_entry.path().string() +
                              ": " + ec.message());
      const std::string kind = kind_entry.path().filename().string();
      for (const fs::directory_entry& file : files) {
        const std::string name = file.path().filename().string();
        if (!file.is_regular_file(ec) ||
            classify_artifact_file(kind, name) != ArtifactFile::kArtifact)
          continue;  // writer-crash debris or foreign file
        const fs::path destination = destination_root / kind / name;
        const std::string bytes = read_file(file.path());
        // Resolving to the same file (merging a directory into itself) is
        // a no-op, not a self-collision.
        if (fs::exists(destination, ec) &&
            !fs::equivalent(file.path(), destination, ec)) {
          if (read_file(destination) == bytes) {
            ++stats.identical;
          } else {
            throw StoreMergeError(
                "store collision for key " +
                file.path().stem().string() + " (kind " + kind + "): " +
                file.path().string() + " and " + destination.string() +
                " differ — equal keys must hold equal bytes");
          }
          continue;
        }
        if (fs::equivalent(file.path(), destination, ec)) continue;
        copy_artifact(file.path(), destination, bytes);
        ++stats.copied;
      }
    }
  }
  return stats;
}

}  // namespace pwcet
