#include "store/artifact_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "obs/metrics.hpp"

namespace pwcet {
namespace {

namespace fs = std::filesystem;

/// Kinds become path components; restrict them to a safe alphabet so a
/// creative kind string cannot escape the cache directory.
bool valid_kind(std::string_view kind) {
  if (kind.empty()) return false;
  for (const char c : kind) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

std::atomic<std::uint64_t> temp_counter{0};

/// Content hash of the payload, carried in the header so value-level
/// corruption (bitrot, truncation past the header, hand edits) reads as
/// a miss — the structural validation in load_distribution cannot catch
/// a flipped digit that still parses.
std::string payload_hash_hex(std::string_view payload) {
  return KeyHasher("artifact-payload-v1").mix_string(payload).finish().hex();
}

}  // namespace

ArtifactFile classify_artifact_file(std::string_view kind,
                                    std::string_view file_name) {
  if (!valid_kind(kind)) return ArtifactFile::kForeign;
  if (file_name.find(".jsonl.tmp") != std::string_view::npos)
    return ArtifactFile::kOrphan;
  StoreKey key;
  const std::string_view extension = ".jsonl";
  return file_name.size() == 32 + extension.size() &&
                 file_name.ends_with(extension) &&
                 store_key_from_hex(file_name.substr(0, 32), key)
             ? ArtifactFile::kArtifact
             : ArtifactFile::kForeign;
}

std::vector<CacheFile> list_cache_files(const std::string& dir) {
  std::vector<CacheFile> files;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return files;
  for (const fs::directory_entry& kind : fs::directory_iterator(dir)) {
    const std::string kind_name = kind.path().filename().string();
    if (!valid_kind(kind_name) || !kind.is_directory(ec)) continue;
    for (const fs::directory_entry& file :
         fs::directory_iterator(kind.path())) {
      if (!file.is_regular_file(ec)) continue;
      std::string name = file.path().filename().string();
      const ArtifactFile type = classify_artifact_file(kind_name, name);
      files.push_back({file.path().string(), kind_name, std::move(name), type});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const CacheFile& a, const CacheFile& b) {
              return a.path < b.path;
            });
  return files;
}

bool write_file_atomically(const std::string& path, std::string_view bytes) {
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) return false;
  // The pid makes the temp name unique across processes sharing a cache
  // directory; the counter alone would make two processes scribble over
  // the same ".tmp0" file.
  std::string temp = path;
  temp += ".tmp";
  temp += std::to_string(::getpid());
  temp += '.';
  temp += std::to_string(temp_counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    out << bytes;
    out.close();
    if (out.fail()) {
      fs::remove(temp, ec);
      return false;
    }
  }
  fs::rename(temp, path, ec);
  if (ec) {
    fs::remove(temp, ec);
    return false;
  }
  return true;
}

ArtifactStore::ArtifactStore(std::string directory)
    : directory_(std::move(directory)) {}

std::string ArtifactStore::path_of(std::string_view kind,
                                   const StoreKey& key) const {
  std::string path = directory_;
  path += '/';
  path += kind;
  path += '/';
  path += key.hex();
  path += ".jsonl";
  return path;
}

std::string ArtifactStore::header_line(std::string_view kind,
                                       const StoreKey& key,
                                       std::string_view payload) const {
  std::string header = "{\"magic\":\"pwcet-artifact\",\"version\":";
  header += std::to_string(kFormatVersion);
  header += ",\"kind\":\"";
  header += kind;
  header += "\",\"key\":\"";
  header += key.hex();
  header += "\",\"payload\":\"";
  header += payload_hash_hex(payload);
  header += "\"}";
  return header;
}

std::optional<std::string> ArtifactStore::load_text(
    std::string_view kind, const StoreKey& key) const {
  if (!valid_kind(kind)) return std::nullopt;
  std::ifstream in(path_of(kind, key), std::ios::binary);
  if (!in) {
    disk_misses_.fetch_add(1, std::memory_order_relaxed);
    obs::count_store("disk", kind, "misses");
    return std::nullopt;
  }
  std::string header;
  std::ostringstream rest;
  if (std::getline(in, header)) rest << in.rdbuf();
  const std::string payload = rest.str();
  // Rebuilding the expected header from the payload checks everything at
  // once: magic, version, kind, key, and the payload's content hash.
  // Stale format, foreign file, key/kind mismatch, or corruption anywhere
  // in the payload all read as a miss.
  if (in.bad() || header != header_line(kind, key, payload)) {
    disk_misses_.fetch_add(1, std::memory_order_relaxed);
    obs::count_store("disk", kind, "misses");
    return std::nullopt;
  }
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  obs::count_store("disk", kind, "hits");
  return payload;
}

bool ArtifactStore::store_text(std::string_view kind, const StoreKey& key,
                               std::string_view payload) const {
  if (!valid_kind(kind)) return false;
  std::string bytes = header_line(kind, key, payload);
  bytes += '\n';
  bytes += payload;
  // Concurrent writers of the same key (which by the determinism contract
  // write identical bytes) race benignly: the last rename wins.
  if (!write_file_atomically(path_of(kind, key), bytes)) return false;
  disk_writes_.fetch_add(1, std::memory_order_relaxed);
  obs::count_store("disk", kind, "writes");
  return true;
}

std::size_t ArtifactStore::sweep_orphans(std::chrono::seconds min_age) const {
  std::vector<CacheFile> files;
  try {
    files = list_cache_files(directory_);
  } catch (const fs::filesystem_error&) {
    return 0;  // best-effort, like every other store operation
  }
  const fs::file_time_type cutoff = fs::file_time_type::clock::now() - min_age;
  std::size_t removed = 0;
  for (const CacheFile& file : files) {
    if (file.type != ArtifactFile::kOrphan) continue;
    std::error_code ec;
    const fs::file_time_type written = fs::last_write_time(file.path, ec);
    if (ec || written > cutoff) continue;  // a live writer's file: keep it
    if (fs::remove(file.path, ec)) ++removed;
  }
  return removed;
}

bool ArtifactStore::store_distribution(
    const StoreKey& key, const DiscreteDistribution& distribution) const {
  std::string payload;
  payload.reserve(distribution.size() * 48);
  char line[96];
  for (const ProbabilityAtom& atom : distribution.atoms()) {
    std::snprintf(line, sizeof line, "{\"value\":%" PRId64 ",\"p\":%.17g}\n",
                  static_cast<std::int64_t>(atom.value), atom.probability);
    payload += line;
  }
  return store_text("distribution", key, payload);
}

std::optional<DiscreteDistribution> ArtifactStore::load_distribution(
    const StoreKey& key) const {
  const std::optional<std::string> payload = load_text("distribution", key);
  if (!payload) return std::nullopt;

  // Validate everything *before* constructing: from_canonical_atoms treats
  // violations as programming errors (abort), but a damaged cache file is
  // an environmental condition that must degrade to a recompute.
  std::vector<ProbabilityAtom> atoms;
  std::istringstream lines(*payload);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::int64_t value = 0;
    double p = 0.0;
    if (std::sscanf(line.c_str(), "{\"value\":%" SCNd64 ",\"p\":%lf}", &value,
                    &p) != 2)
      return std::nullopt;
    if (!(p > 0.0)) return std::nullopt;
    if (!atoms.empty() && atoms.back().value >= value) return std::nullopt;
    atoms.push_back({static_cast<Cycles>(value), p});
  }
  if (atoms.empty()) return std::nullopt;
  return DiscreteDistribution::from_canonical_atoms(std::move(atoms));
}

}  // namespace pwcet
