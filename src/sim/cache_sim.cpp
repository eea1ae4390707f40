#include "sim/cache_sim.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace pwcet {
namespace {

/// Usable ways of every set: the fault-free ways, plus way 0 under RW,
/// whose hardening masks a fault recorded there.
std::vector<std::uint32_t> count_usable_ways(const CacheConfig& config,
                                             const FaultMap& faults,
                                             Mechanism mechanism) {
  PWCET_EXPECTS(faults.sets() == config.sets && faults.ways() == config.ways);
  std::vector<std::uint32_t> usable(config.sets, 0);
  for (SetIndex s = 0; s < config.sets; ++s)
    for (std::uint32_t w = 0; w < config.ways; ++w) {
      const bool masked_by_rw = mechanism == Mechanism::kReliableWay && w == 0;
      if (masked_by_rw || !faults.is_faulty(s, w)) ++usable[s];
    }
  return usable;
}

}  // namespace

CacheSimulator::CacheSimulator(const CacheConfig& config,
                               const FaultMap& faults, Mechanism mechanism)
    : config_(config),
      mechanism_(mechanism),
      usable_(count_usable_ways(config, faults, mechanism)),
      lru_(config.sets) {
  config_.validate();
  stats_.misses_per_set.assign(config.sets, 0);
}

bool CacheSimulator::lookup_lru(SetIndex s, LineAddress line) {
  auto& stack = lru_[s];
  const auto it = std::find(stack.begin(), stack.end(), line);
  if (it != stack.end()) {
    // Hit: move to MRU position.
    std::rotate(stack.begin(), it, it + 1);
    return true;
  }
  // Miss: insert at MRU, evict LRU if the usable capacity is exceeded.
  stack.insert(stack.begin(), line);
  if (stack.size() > usable_[s]) stack.pop_back();
  return false;
}

bool CacheSimulator::fetch(Address address) {
  const LineAddress line = config_.line_of(address);
  const SetIndex s = config_.set_of_line(line);
  const std::uint32_t usable = usable_[s];

  bool hit = false;
  if (usable > 0) {
    hit = lookup_lru(s, line);
  } else if (mechanism_ == Mechanism::kSharedReliableBuffer) {
    // Set fully faulty: the SRB is consulted and refilled on miss.
    hit = srb_valid_ && srb_line_ == line;
    if (hit) {
      ++stats_.srb_hits;
    } else {
      srb_valid_ = true;
      srb_line_ = line;
    }
  }
  // kNone with a fully faulty set: unconditional miss (hit stays false).

  ++stats_.fetches;
  stats_.cycles += config_.hit_latency;
  if (!hit) {
    ++stats_.misses;
    ++stats_.misses_per_set[s];
    stats_.cycles += config_.miss_penalty;
  }
  return hit;
}

void CacheSimulator::run(const std::vector<Address>& trace) {
  for (Address a : trace) fetch(a);
}

SimStats simulate_trace(const CacheConfig& config, const FaultMap& faults,
                        Mechanism mechanism,
                        const std::vector<Address>& trace) {
  CacheSimulator sim(config, faults, mechanism);
  sim.run(trace);
  return sim.stats();
}

WritebackCacheSimulator::WritebackCacheSimulator(const CacheConfig& config,
                                                 const FaultMap& faults,
                                                 Mechanism mechanism)
    : config_(config),
      mechanism_(mechanism),
      usable_(count_usable_ways(config, faults, mechanism)),
      lru_(config.sets) {
  config_.validate();
}

bool WritebackCacheSimulator::access(Address address, bool is_store) {
  const LineAddress line = config_.line_of(address);
  const SetIndex s = config_.set_of_line(line);
  const std::uint32_t usable = usable_[s];

  bool hit = false;
  if (usable > 0) {
    auto& stack = lru_[s];
    const auto it = std::find_if(
        stack.begin(), stack.end(),
        [line](const Way& w) { return w.line == line; });
    if (it != stack.end()) {
      it->dirty = it->dirty || is_store;
      std::rotate(stack.begin(), it, it + 1);
      hit = true;
    } else {
      // Write-allocate: stores insert their line dirty.
      stack.insert(stack.begin(), {line, is_store});
      if (stack.size() > usable) {
        if (stack.back().dirty) ++stats_.writebacks;
        stack.pop_back();
      }
    }
  } else if (mechanism_ == Mechanism::kSharedReliableBuffer) {
    hit = srb_valid_ && srb_line_ == line;
    if (hit) {
      srb_dirty_ = srb_dirty_ || is_store;
    } else {
      if (srb_valid_ && srb_dirty_) ++stats_.writebacks;
      srb_valid_ = true;
      srb_line_ = line;
      srb_dirty_ = is_store;
    }
  }
  // kNone with a fully faulty set caches nothing: unconditional miss, and
  // no line ever becomes dirty there, so no write-backs either.

  ++stats_.accesses;
  if (!hit) ++stats_.misses;
  return hit;
}

}  // namespace pwcet
