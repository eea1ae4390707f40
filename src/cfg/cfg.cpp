#include "cfg/cfg.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace pwcet {

BlockId ControlFlowGraph::add_block(Address first_address,
                                    std::uint32_t instruction_count) {
  const BlockId id = static_cast<BlockId>(blocks_.size());
  BasicBlock b;
  b.id = id;
  b.first_address = first_address;
  b.instruction_count = instruction_count;
  blocks_.push_back(std::move(b));
  innermost_.push_back(kNoLoop);
  return id;
}

EdgeId ControlFlowGraph::add_edge(BlockId source, BlockId target) {
  PWCET_EXPECTS(source >= 0 && static_cast<size_t>(source) < blocks_.size());
  PWCET_EXPECTS(target >= 0 && static_cast<size_t>(target) < blocks_.size());
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back({id, source, target});
  blocks_[size_t(source)].out_edges.push_back(id);
  blocks_[size_t(target)].in_edges.push_back(id);
  return id;
}

void ControlFlowGraph::set_data_addresses(BlockId b,
                                           std::vector<Address> addresses) {
  PWCET_EXPECTS(b >= 0 && static_cast<size_t>(b) < blocks_.size());
  blocks_[size_t(b)].data_addresses = std::move(addresses);
}

void ControlFlowGraph::set_store_addresses(BlockId b,
                                           std::vector<Address> addresses) {
  PWCET_EXPECTS(b >= 0 && static_cast<size_t>(b) < blocks_.size());
  blocks_[size_t(b)].store_addresses = std::move(addresses);
}

LoopId ControlFlowGraph::add_loop(LoopInfo info) {
  const LoopId id = static_cast<LoopId>(loops_.size());
  info.id = id;
  // Loops are registered outermost-first, after every block, by the
  // builder; overwriting in registration order leaves the innermost loop
  // id per block.
  for (const BlockId b : info.blocks) {
    PWCET_EXPECTS(b >= 0 && static_cast<size_t>(b) < blocks_.size());
    innermost_[size_t(b)] = id;
  }
  loops_.push_back(std::move(info));
  return id;
}

bool ControlFlowGraph::loop_contains(LoopId outer, LoopId inner) const {
  for (LoopId l = inner; l != kNoLoop; l = loops_[size_t(l)].parent)
    if (l == outer) return true;
  return false;
}

std::vector<BlockId> ControlFlowGraph::reverse_post_order() const {
  std::vector<BlockId> order;
  order.reserve(blocks_.size());
  std::vector<std::uint8_t> state(blocks_.size(), 0);  // 0=new 1=open 2=done
  // Iterative DFS with explicit stack of (block, next-out-edge index).
  std::vector<std::pair<BlockId, std::size_t>> stack;
  stack.emplace_back(entry_, 0);
  state[size_t(entry_)] = 1;
  while (!stack.empty()) {
    auto& [b, next] = stack.back();
    const auto& out = blocks_[size_t(b)].out_edges;
    if (next < out.size()) {
      const BlockId succ = edges_[size_t(out[next])].target;
      ++next;
      if (state[size_t(succ)] == 0) {
        state[size_t(succ)] = 1;
        stack.emplace_back(succ, 0);
      }
    } else {
      state[size_t(b)] = 2;
      order.push_back(b);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

void ControlFlowGraph::validate() const {
  PWCET_ASSERT(entry_ != kNoBlock && exit_ != kNoBlock);
  const auto order = reverse_post_order();
  PWCET_ASSERT(order.size() == blocks_.size());  // all blocks reachable

  // Every block must reach the exit (otherwise IPET flow is ill-formed).
  std::vector<std::uint8_t> reaches_exit(blocks_.size(), 0);
  reaches_exit[size_t(exit_)] = 1;
  // Reverse BFS over predecessors.
  std::vector<BlockId> work{exit_};
  while (!work.empty()) {
    const BlockId b = work.back();
    work.pop_back();
    for (EdgeId e : blocks_[size_t(b)].in_edges) {
      const BlockId pred = edges_[size_t(e)].source;
      if (!reaches_exit[size_t(pred)]) {
        reaches_exit[size_t(pred)] = 1;
        work.push_back(pred);
      }
    }
  }
  for (const BasicBlock& b : blocks_) PWCET_ASSERT(reaches_exit[size_t(b.id)]);

  // Loop metadata consistency.
  for (const LoopInfo& loop : loops_) {
    PWCET_ASSERT(loop.bound >= 0);
    PWCET_ASSERT(!loop.blocks.empty());
    PWCET_ASSERT(std::find(loop.blocks.begin(), loop.blocks.end(),
                           loop.header) != loop.blocks.end());
    for (EdgeId e : loop.back_edges) {
      PWCET_ASSERT(edges_[size_t(e)].target == loop.header);
    }
    for (EdgeId e : loop.entry_edges) {
      PWCET_ASSERT(edges_[size_t(e)].target == loop.header);
    }
    if (loop.parent != kNoLoop) {
      // Parent must contain all of this loop's blocks.
      const LoopInfo& parent = loops_[size_t(loop.parent)];
      for (BlockId b : loop.blocks) {
        PWCET_ASSERT(std::find(parent.blocks.begin(), parent.blocks.end(),
                               b) != parent.blocks.end());
      }
    }
  }
}

std::uint64_t ControlFlowGraph::total_instructions() const {
  std::uint64_t total = 0;
  for (const BasicBlock& b : blocks_) total += b.instruction_count;
  return total;
}

}  // namespace pwcet
