#include "cache/references.hpp"

namespace pwcet {

ReferenceMap extract_references(const ControlFlowGraph& cfg,
                                const CacheConfig& config,
                                AccessStreams streams) {
  config.validate();
  ReferenceMap refs(cfg.block_count());
  for (const BasicBlock& b : cfg.blocks()) {
    auto& seq = refs[size_t(b.id)];
    const auto access = [&](Address a) {
      const LineAddress line = config.line_of(a);
      if (!seq.empty() && seq.back().line == line) {
        ++seq.back().fetches;
      } else {
        seq.push_back({line, config.set_of_line(line), 1});
      }
    };
    if (streams.fetches)
      for (std::uint32_t i = 0; i < b.instruction_count; ++i)
        access(b.first_address + i * kInstructionBytes);
    if (streams.loads)
      for (const Address a : b.data_addresses) access(a);
    if (streams.stores)
      for (const Address a : b.store_addresses) access(a);
  }
  return refs;
}

std::uint64_t block_fetches(const ReferenceMap& refs, BlockId b) {
  std::uint64_t total = 0;
  for (const LineRef& r : refs[size_t(b)]) total += r.fetches;
  return total;
}

}  // namespace pwcet
