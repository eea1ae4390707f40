/// \file
/// Union of on-disk artifact-store directories (the store half of
/// `pwcet merge`).
///
/// The artifact tier is content-addressed — a file's path is
/// `<kind>/<key>.jsonl` and the key names the computation's inputs — so
/// merging the stores of N campaign shards is a key-union: every artifact
/// is copied into the destination unless an artifact with the same
/// (kind, key) already exists there, in which case the two files must be
/// byte-identical (the determinism contract says equal keys mean equal
/// bytes). A same-key-different-bytes pair is *not* resolvable by picking
/// one: it means two runs disagreed about a deterministic computation
/// (corruption, or a version skew between shard binaries), so it is a
/// hard StoreMergeError naming the key and both files.
///
/// Only artifact files (classify_artifact_file) are copied: writer-crash
/// debris and foreign files are left alone, the same "only touch what is
/// ours" rule `pwcet cache` follows.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace pwcet {

/// A store union that cannot be completed correctly: an unreadable source
/// directory, an I/O failure, or a same-key-different-bytes collision.
class StoreMergeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct StoreMergeStats {
  std::size_t copied = 0;     ///< artifacts newly copied into the destination
  std::size_t identical = 0;  ///< already present, byte-identical (skipped)
};

/// Unions the artifact files of every `from` directory into `into`
/// (created if missing; copies are atomic temp-file + rename, so a reader
/// of `into` never sees a partial artifact). A source directory that does
/// not exist contributes nothing — a shard that wrote no artifacts is not
/// an error at this layer; fragment completeness is checked by
/// engine/shard.cpp. Throws StoreMergeError on collisions and I/O errors.
StoreMergeStats merge_artifact_dirs(const std::vector<std::string>& from,
                                    const std::string& into);

}  // namespace pwcet
