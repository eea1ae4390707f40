// Control-flow graph with natural-loop metadata.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cfg/basic_block.hpp"
#include "support/types.hpp"

namespace pwcet {

/// A natural loop with a user-supplied iteration bound.
///
/// Bound semantics: per entry of the loop, the body executes at most
/// `bound` times; the header (loop test) executes at most `bound + 1` times.
/// In IPET this is expressed as  sum(back edges) <= bound * sum(entry edges).
struct LoopInfo {
  LoopId id = kNoLoop;
  LoopId parent = kNoLoop;       ///< enclosing loop, kNoLoop if top level
  BlockId header = kNoBlock;
  std::int64_t bound = 0;        ///< max body iterations per loop entry
  std::vector<BlockId> blocks;   ///< all blocks of the loop, incl. header
  std::vector<EdgeId> back_edges;   ///< edges latch -> header
  std::vector<EdgeId> entry_edges;  ///< edges from outside into the header
};

/// CFG of a fully inlined task. Single entry, single exit.
class ControlFlowGraph {
 public:
  ControlFlowGraph() = default;

  BlockId add_block(Address first_address, std::uint32_t instruction_count);
  EdgeId add_edge(BlockId source, BlockId target);

  /// Records the statically known data addresses block `b` loads.
  void set_data_addresses(BlockId b, std::vector<Address> addresses);

  /// Records the statically known data addresses block `b` stores to.
  void set_store_addresses(BlockId b, std::vector<Address> addresses);

  void set_entry(BlockId b) { entry_ = b; }
  void set_exit(BlockId b) { exit_ = b; }
  BlockId entry() const { return entry_; }
  BlockId exit() const { return exit_; }

  std::size_t block_count() const { return blocks_.size(); }
  std::size_t edge_count() const { return edges_.size(); }
  const BasicBlock& block(BlockId b) const { return blocks_[size_t(b)]; }
  const CfgEdge& edge(EdgeId e) const { return edges_[size_t(e)]; }
  const std::vector<BasicBlock>& blocks() const { return blocks_; }
  const std::vector<CfgEdge>& edges() const { return edges_; }

  /// Loop metadata. Loops are registered by the program builder (exact) or
  /// recovered by `detect_natural_loops` (validation path).
  LoopId add_loop(LoopInfo info);
  const std::vector<LoopInfo>& loops() const { return loops_; }
  const LoopInfo& loop(LoopId l) const { return loops_[size_t(l)]; }

  /// Innermost loop containing the block, kNoLoop if none.
  LoopId innermost_loop(BlockId b) const { return innermost_[size_t(b)]; }

  /// True if loop `outer` (or outer == inner) contains loop `inner`.
  bool loop_contains(LoopId outer, LoopId inner) const;

  /// Blocks in reverse post-order from the entry (ignoring back edges this
  /// is a topological order; used by the data-flow fixpoints for fast
  /// convergence).
  std::vector<BlockId> reverse_post_order() const;

  /// Basic structural sanity: entry/exit set, entry has no predecessors
  /// via non-loop paths requirement relaxed; all blocks reachable; every
  /// block reaches exit. Aborts on violation (programming error).
  void validate() const;

  /// Total number of instruction fetches if every block ran once.
  std::uint64_t total_instructions() const;

 private:
  std::vector<BasicBlock> blocks_;
  std::vector<CfgEdge> edges_;
  std::vector<LoopInfo> loops_;
  std::vector<LoopId> innermost_;  ///< per block, kept by add_block/add_loop
  BlockId entry_ = kNoBlock;
  BlockId exit_ = kNoBlock;
};

}  // namespace pwcet
