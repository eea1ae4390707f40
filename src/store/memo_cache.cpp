#include "store/memo_cache.hpp"

#include <algorithm>
#include <list>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "support/contracts.hpp"

namespace pwcet {

struct MemoCache::Shard {
  struct Entry {
    StoreKey key;
    std::shared_ptr<const void> value;
    std::uint64_t bytes;  ///< payload bytes, released on eviction
    // Layer tag for metrics attribution; call sites pass string literals,
    // so storing the pointer is enough.
    const char* layer;
  };

  std::mutex mutex;
  std::size_t capacity = 0;
  std::list<Entry> lru;  ///< front = most recently used
  std::unordered_map<StoreKey, std::list<Entry>::iterator, StoreKeyHash>
      index;
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::uint64_t bytes = 0;  ///< resident payload bytes
};

MemoCache::MemoCache() : MemoCache(Config{}) {}

MemoCache::MemoCache(Config config) {
  PWCET_EXPECTS(config.capacity >= 1);
  PWCET_EXPECTS(config.shards >= 1);
  const std::size_t shards = std::min(config.shards, config.capacity);
  // Round the per-shard share up so the configured total is a floor, not
  // a ceiling an unlucky key distribution could undershoot.
  const std::size_t share = (config.capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = share;
  }
}

MemoCache::~MemoCache() = default;

MemoCache::Shard& MemoCache::shard_of(const StoreKey& key) {
  // hi is uniformly mixed; lo indexes unordered_map buckets, so using the
  // other word here keeps the two partitions independent.
  return *shards_[static_cast<std::size_t>(key.hi) % shards_.size()];
}

std::shared_ptr<const void> MemoCache::get(const StoreKey& key,
                                           const char* layer) {
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    obs::count_store("memo", layer, "misses");
    return nullptr;
  }
  ++shard.hits;
  obs::count_store("memo", layer, "hits");
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

void MemoCache::insert(const StoreKey& key,
                       std::shared_ptr<const void> value, std::uint64_t bytes,
                       const char* layer) {
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Benign compute race: a sibling inserted first. Its value is
    // bit-identical by the determinism contract; keep it and just
    // refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(Shard::Entry{key, std::move(value), bytes, layer});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  obs::count_store("memo", layer, "bytes", bytes);
  while (shard.lru.size() > shard.capacity) {
    const Shard::Entry& victim = shard.lru.back();
    shard.index.erase(victim.key);
    shard.bytes -= victim.bytes;
    obs::count_store("memo", victim.layer, "evictions");
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

StoreStats MemoCache::stats() const {
  StoreStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.evictions += shard->evictions;
    total.entries += shard->lru.size();
    total.bytes += shard->bytes;
  }
  return total;
}

void MemoCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

}  // namespace pwcet
