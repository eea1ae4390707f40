/// \file
/// Sharded in-memory LRU memoization cache, the hot tier of the
/// content-addressed analysis store.
///
/// Values are immutable (shared_ptr<const void>), so a hit hands back the
/// exact bits a previous computation produced — which is what makes
/// memoization invisible to the engine's byte-identity contract: a key
/// captures *every* input of the computation it names, and the computation
/// is deterministic, so recomputing could only reproduce the cached value.
///
/// Concurrency: the key space is split across independently locked shards
/// (by key bits, so the mapping is stable); campaign workers hammer the
/// cache from many threads without a global lock. Two threads racing on
/// the same missing key may both compute; both produce identical bits and
/// the losing insert is dropped, so the race is benign.
///
/// Memory: the bound is an entry count, not bytes, but every entry records
/// its payload size, so StoreStats::bytes and the per-layer
/// `store.memo.<layer>.bytes` counters show what each layer holds. The
/// layers are "campaign", "penalty", "profile" and "fmm-rows"
/// (store/analysis_store.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "store/key.hpp"

namespace pwcet {

/// Counters of the whole store (memo tier + artifact tier). Deltas of two
/// snapshots describe one campaign run (see CampaignResult::store_stats).
struct StoreStats {
  std::uint64_t hits = 0;       ///< memo lookups served from memory
  std::uint64_t misses = 0;     ///< memo lookups that had to compute
  std::uint64_t evictions = 0;  ///< entries dropped by the LRU bound
  std::uint64_t entries = 0;    ///< entries currently resident
  std::uint64_t bytes = 0;      ///< payload bytes currently resident
  std::uint64_t disk_hits = 0;    ///< artifact loads that validated
  std::uint64_t disk_misses = 0;  ///< artifact loads that found nothing
  std::uint64_t disk_writes = 0;  ///< artifacts persisted

  double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(lookups);
  }

  /// Counter delta (entries and bytes stay absolute: they are levels,
  /// not flows).
  StoreStats since(const StoreStats& before) const {
    StoreStats d = *this;
    d.hits -= before.hits;
    d.misses -= before.misses;
    d.evictions -= before.evictions;
    d.disk_hits -= before.disk_hits;
    d.disk_misses -= before.disk_misses;
    d.disk_writes -= before.disk_writes;
    return d;
  }
};

/// Payload bytes of a memo value, the unit of StoreStats::bytes and of the
/// `store.memo.<layer>.bytes` counters: element counts times element
/// sizes, taken from size() rather than capacity() so that the count does
/// not depend on how a value's vectors grew. Each memo value type declares
/// an overload beside the code that memoizes it (found by argument-
/// dependent lookup); arithmetic values count their own size.
template <typename V>
  requires std::is_arithmetic_v<V>
std::uint64_t payload_bytes(const V&) {
  return sizeof(V);
}

/// Type-erased sharded LRU cache. Each domain tag (see KeyHasher) is used
/// with exactly one value type, so the static_pointer_cast in
/// get_or_compute is safe by construction.
class MemoCache {
 public:
  struct Config {
    std::size_t capacity = 4096;  ///< total entries across all shards
    std::size_t shards = 8;       ///< independently locked partitions
  };

  MemoCache();  ///< default Config
  explicit MemoCache(Config config);
  ~MemoCache();

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  /// Looks up a key; a hit refreshes its LRU position. `layer` is an
  /// observability-only attribution tag ("campaign", "penalty", "profile"
  /// or "fmm-rows") for the per-layer metrics counters — it never affects
  /// lookup.
  std::shared_ptr<const void> get(const StoreKey& key,
                                  const char* layer = "other");

  /// Inserts (or refreshes) a value, evicting least-recently-used entries
  /// of the same shard beyond its capacity share. Each entry remembers its
  /// layer and its payload_bytes(*value); an eviction is attributed to the
  /// *evicted* entry's layer and releases its bytes.
  template <typename V>
  void put(const StoreKey& key, std::shared_ptr<const V> value,
           const char* layer = "other") {
    const std::uint64_t bytes = payload_bytes(*value);
    insert(key, std::move(value), bytes, layer);
  }

  /// Memoized evaluation: returns the cached value for `key` or computes,
  /// inserts and returns it. The computation runs outside any lock.
  template <typename V, typename Fn>
  std::shared_ptr<const V> get_or_compute(const StoreKey& key, Fn&& compute,
                                          const char* layer = "other") {
    if (std::shared_ptr<const void> hit = get(key, layer))
      return std::static_pointer_cast<const V>(std::move(hit));
    auto value = std::make_shared<const V>(compute());
    put(key, value, layer);
    return value;
  }

  StoreStats stats() const;
  void clear();

 private:
  struct Shard;
  Shard& shard_of(const StoreKey& key);
  void insert(const StoreKey& key, std::shared_ptr<const void> value,
              std::uint64_t bytes, const char* layer);

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pwcet
