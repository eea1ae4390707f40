#include "store/memo_cache.hpp"

#include <list>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "support/contracts.hpp"

namespace pwcet {

struct MemoCache::State {
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

MemoCache::MemoCache(Config config) : state_(std::make_unique<State>()) {
  PWCET_EXPECTS(config.capacity >= 1);
  state_->capacity = config.capacity;
}

MemoCache::~MemoCache() = default;

std::shared_ptr<const void> MemoCache::get(const StoreKey& key,
                                           const char* layer) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    ++s.misses;
    obs::count_store("memo", layer, "misses");
    return nullptr;
  }
  ++s.hits;
  obs::count_store("memo", layer, "hits");
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  return it->second->value;
}

void MemoCache::insert(const StoreKey& key,
                       std::shared_ptr<const void> value, std::uint64_t bytes,
                       const char* layer) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    // Benign compute race: a sibling inserted first. Its value is
    // bit-identical by the determinism contract; keep it and just
    // refresh recency.
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.lru.emplace_front(State::Entry{key, std::move(value), bytes, layer});
  s.index.emplace(key, s.lru.begin());
  s.bytes += bytes;
  obs::count_store("memo", layer, "bytes", bytes);
  while (s.lru.size() > s.capacity) {
    const State::Entry& victim = s.lru.back();
    s.index.erase(victim.key);
    s.bytes -= victim.bytes;
    obs::count_store("memo", victim.layer, "evictions");
    s.lru.pop_back();
    ++s.evictions;
  }
}

StoreStats MemoCache::stats() const {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mutex);
  StoreStats total;
  total.hits = s.hits;
  total.misses = s.misses;
  total.evictions = s.evictions;
  total.entries = s.lru.size();
  total.bytes = s.bytes;
  return total;
}

void MemoCache::clear() {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mutex);
  s.lru.clear();
  s.index.clear();
  s.bytes = 0;
}

}  // namespace pwcet
