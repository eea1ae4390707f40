// Tests for reference extraction and the cycle-accurate cache simulator,
// including the fault semantics of §II-A and the RW/SRB lookup behaviour
// of §III-A.
#include <gtest/gtest.h>

#include "cache/references.hpp"
#include "cfg/program.hpp"
#include "sim/cache_sim.hpp"
#include "sim/path.hpp"
#include "sim/population.hpp"
#include "support/rng.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

CacheConfig small_config() {
  CacheConfig c;
  c.sets = 4;
  c.ways = 2;
  c.line_bytes = 16;
  return c;
}

std::vector<Address> line_trace(const CacheConfig& c,
                                std::initializer_list<LineAddress> lines) {
  std::vector<Address> t;
  for (LineAddress l : lines) t.push_back(l * c.line_bytes);
  return t;
}

TEST(References, MergesFetchesWithinLine) {
  ProgramBuilder b("p");
  b.add_function("main", b.code(10));  // 10 instructions = 2.5 lines
  const Program p = b.build(0);
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  for (const auto& blk : p.cfg().blocks()) {
    if (blk.instruction_count != 10) continue;
    const auto& seq = refs[size_t(blk.id)];
    ASSERT_EQ(seq.size(), 3u);
    EXPECT_EQ(seq[0].fetches, 4u);
    EXPECT_EQ(seq[1].fetches, 4u);
    EXPECT_EQ(seq[2].fetches, 2u);
    EXPECT_EQ(block_fetches(refs, blk.id), 10u);
    // Consecutive lines map to consecutive sets.
    EXPECT_EQ(seq[1].set, (seq[0].set + 1) % c.sets);
  }
}

TEST(References, BlockStartingMidLine) {
  ProgramBuilder b("p");
  b.add_function("main", b.seq({b.code(2), b.code(4)}));
  const Program p = b.build(0);
  const auto refs = extract_references(p.cfg(), CacheConfig::paper_default());
  for (const auto& blk : p.cfg().blocks()) {
    if (blk.instruction_count != 4) continue;
    // Starts at byte 8 (mid line 0): refs = line 0 (2 fetches) + line 1 (2).
    const auto& seq = refs[size_t(blk.id)];
    ASSERT_EQ(seq.size(), 2u);
    EXPECT_EQ(seq[0].line, 0u);
    EXPECT_EQ(seq[0].fetches, 2u);
    EXPECT_EQ(seq[1].line, 1u);
  }
}

TEST(Sim, ColdMissThenHit) {
  const CacheConfig c = small_config();
  CacheSimulator sim(c, FaultMap::none(c), Mechanism::kNone);
  EXPECT_FALSE(sim.fetch(0));  // cold miss
  EXPECT_TRUE(sim.fetch(4));   // same line
  EXPECT_TRUE(sim.fetch(0));
  EXPECT_EQ(sim.stats().misses, 1u);
  EXPECT_EQ(sim.stats().fetches, 3u);
  EXPECT_EQ(sim.stats().cycles, 3 * c.hit_latency + 1 * c.miss_penalty);
}

TEST(Sim, LruEvictionOrder) {
  const CacheConfig c = small_config();  // 2 ways
  CacheSimulator sim(c, FaultMap::none(c), Mechanism::kNone);
  // Lines 0, 4, 8 all map to set 0 (4 sets).
  sim.run(line_trace(c, {0, 4}));
  EXPECT_TRUE(sim.fetch(0 * c.line_bytes));   // hit, 0 becomes MRU
  sim.fetch(8 * c.line_bytes);                // evicts 4 (LRU)
  EXPECT_TRUE(sim.fetch(0 * c.line_bytes));   // still resident
  EXPECT_FALSE(sim.fetch(4 * c.line_bytes));  // was evicted
}

TEST(Sim, FaultyWaysShrinkCapacity) {
  const CacheConfig c = small_config();
  // One faulty way in set 0 -> effective associativity 1.
  const FaultMap map = FaultMap::with_faulty_ways(c, 0, 1);
  CacheSimulator sim(c, map, Mechanism::kNone);
  EXPECT_EQ(sim.usable_ways(0), 1u);
  EXPECT_EQ(sim.usable_ways(1), 2u);
  sim.run(line_trace(c, {0, 4}));  // both to set 0; 4 evicts 0
  EXPECT_FALSE(sim.fetch(0));      // 0 was evicted in a 1-way set
}

TEST(Sim, FullyFaultySetNeverHits) {
  const CacheConfig c = small_config();
  const FaultMap map = FaultMap::with_faulty_ways(c, 0, 2);
  CacheSimulator sim(c, map, Mechanism::kNone);
  for (int rep = 0; rep < 3; ++rep)
    EXPECT_FALSE(sim.fetch(0));  // same address, every fetch misses
  EXPECT_EQ(sim.stats().misses, 3u);
  // Other sets are unaffected.
  EXPECT_FALSE(sim.fetch(1 * c.line_bytes));
  EXPECT_TRUE(sim.fetch(1 * c.line_bytes));
}

TEST(Sim, ReliableWayMasksFaults) {
  const CacheConfig c = small_config();
  const FaultMap map = FaultMap::with_faulty_ways(c, 0, 2);  // all faulty
  CacheSimulator sim(c, map, Mechanism::kReliableWay);
  EXPECT_EQ(sim.usable_ways(0), 1u);  // way 0 hardened
  EXPECT_FALSE(sim.fetch(0));
  EXPECT_TRUE(sim.fetch(0));  // direct-mapped behaviour survives
}

TEST(Sim, ReliableWayAtMostOneExtraWay) {
  const CacheConfig c = small_config();
  // Fault only in way 1: RW keeps 1 usable way -> same as the fault map.
  FaultMap map = FaultMap::none(c);
  map.set_faulty(0, 1, true);
  CacheSimulator rw(c, map, Mechanism::kReliableWay);
  CacheSimulator none(c, map, Mechanism::kNone);
  EXPECT_EQ(rw.usable_ways(0), none.usable_ways(0));
}

TEST(Sim, SrbServesFullyFaultySet) {
  const CacheConfig c = small_config();
  const FaultMap map = FaultMap::with_faulty_ways(c, 0, 2);
  CacheSimulator sim(c, map, Mechanism::kSharedReliableBuffer);
  EXPECT_FALSE(sim.fetch(0));  // SRB miss, loads line 0
  EXPECT_TRUE(sim.fetch(4));   // same line: SRB hit (spatial locality)
  EXPECT_EQ(sim.stats().srb_hits, 1u);
  sim.fetch(4 * c.line_bytes);  // line 4, same faulty set: reloads SRB
  EXPECT_FALSE(sim.fetch(0));   // line 0 evicted from SRB
}

TEST(Sim, SrbNotUsedByHealthySets) {
  const CacheConfig c = small_config();
  const FaultMap map = FaultMap::with_faulty_ways(c, 0, 2);
  CacheSimulator sim(c, map, Mechanism::kSharedReliableBuffer);
  sim.fetch(0);  // faulty set: SRB now holds line 0
  // A healthy-set access must not disturb the SRB (paper §III-A.2: the SRB
  // is consulted only when the whole set is faulty).
  sim.fetch(1 * c.line_bytes);
  EXPECT_TRUE(sim.fetch(0));  // line 0 still in the SRB
}

TEST(Sim, SrbSharedAcrossFaultySets) {
  CacheConfig c = small_config();
  FaultMap map(c.sets, c.ways);
  for (std::uint32_t w = 0; w < c.ways; ++w) {
    map.set_faulty(0, w, true);
    map.set_faulty(1, w, true);
  }
  CacheSimulator sim(c, map, Mechanism::kSharedReliableBuffer);
  sim.fetch(0);                    // set 0 -> SRB holds line 0
  sim.fetch(1 * c.line_bytes);     // set 1 -> SRB reloaded with line 1
  EXPECT_FALSE(sim.fetch(0));      // interference through the shared buffer
}

TEST(Sim, MechanismsNeverSlowerThanNone) {
  // On random traces and random fault maps, RW and SRB can only help.
  const CacheConfig c = CacheConfig::paper_default();
  Rng rng(51);
  for (int trial = 0; trial < 20; ++trial) {
    const FaultMap map = FaultMap::sample(c, 0.2, rng);
    std::vector<Address> trace;
    for (int i = 0; i < 3000; ++i)
      trace.push_back(rng.next_below(2048) * kInstructionBytes);
    const auto none = simulate_trace(c, map, Mechanism::kNone, trace);
    const auto rw = simulate_trace(c, map, Mechanism::kReliableWay, trace);
    const auto srb =
        simulate_trace(c, map, Mechanism::kSharedReliableBuffer, trace);
    EXPECT_LE(rw.cycles, none.cycles) << trial;
    EXPECT_LE(srb.cycles, none.cycles) << trial;
  }
}

TEST(Sim, FaultFreeMechanismsAllEquivalent) {
  const CacheConfig c = CacheConfig::paper_default();
  Rng rng(53);
  std::vector<Address> trace;
  for (int i = 0; i < 2000; ++i)
    trace.push_back(rng.next_below(1024) * kInstructionBytes);
  const FaultMap none_map = FaultMap::none(c);
  const auto a = simulate_trace(c, none_map, Mechanism::kNone, trace);
  const auto b = simulate_trace(c, none_map, Mechanism::kReliableWay, trace);
  const auto d =
      simulate_trace(c, none_map, Mechanism::kSharedReliableBuffer, trace);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.cycles, d.cycles);
}

TEST(FaultMapTest, SampleRateMatchesPbf) {
  const CacheConfig c = CacheConfig::paper_default();
  Rng rng(57);
  int faulty = 0, total = 0;
  for (int i = 0; i < 200; ++i) {
    const FaultMap m = FaultMap::sample(c, 0.1, rng);
    for (SetIndex s = 0; s < c.sets; ++s) {
      faulty += m.faulty_count(s);
      total += c.ways;
    }
  }
  EXPECT_NEAR(static_cast<double>(faulty) / total, 0.1, 0.01);
}

TEST(Path, RandomWalkIsStructurallyValid) {
  const Program p = workloads::build("statemate");
  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    const BlockPath path = random_walk(p, rng);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), p.cfg().entry());
    EXPECT_EQ(path.back(), p.cfg().exit());
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      bool edge_exists = false;
      for (EdgeId e : p.cfg().block(path[i]).out_edges)
        edge_exists |= (p.cfg().edge(e).target == path[i + 1]);
      EXPECT_TRUE(edge_exists) << "no edge " << path[i] << "->" << path[i + 1];
    }
  }
}

TEST(Path, HeavyWalkMatchesWeight) {
  const Program p = workloads::build("cnt");
  const BlockPath path = heavy_walk(p);
  const auto trace = fetch_trace(p.cfg(), path);
  EXPECT_EQ(trace.size(), heavy_walk_fetch_count(p));
}

TEST(Path, LoopBoundsRespected) {
  const Program p = workloads::build("fibcall");
  Rng rng(67);
  for (int trial = 0; trial < 10; ++trial) {
    const BlockPath path = random_walk(p, rng);
    for (const LoopInfo& loop : p.cfg().loops()) {
      // Header executions <= (bound + 1) * entries. With a single entry per
      // run for fibcall's top-level loop, this is bound + 1.
      std::int64_t header_count = 0;
      for (BlockId blk : path) header_count += (blk == loop.header);
      EXPECT_LE(header_count, loop.bound + 1);
    }
  }
}

TEST(Population, MatchesHandRolledChipLoop) {
  // The shared chip loop of MBPTA and simulation jobs against the loop
  // spelled out: one Rng(seed) stream samples every chip's fault map, and
  // each chip runs the heavy-walk trace cold.
  for (const char* task : {"bs", "fibcall", "cnt"}) {
    const Program p = workloads::build(task);
    const std::vector<Address> trace = fetch_trace(p.cfg(), heavy_walk(p));
    for (const CacheConfig& c : {CacheConfig::paper_default(), small_config()})
      for (const Probability pfail : {1e-3, 1e-2})
        for (const Mechanism mech :
             {Mechanism::kNone, Mechanism::kReliableWay,
              Mechanism::kSharedReliableBuffer}) {
          const FaultModel faults(pfail);
          const Probability pbf = faults.block_failure_probability(c);
          const std::uint64_t seed = 0xc41b + static_cast<std::uint64_t>(mech);
          Rng rng(seed);
          std::vector<double> expected;
          for (int chip = 0; chip < 40; ++chip) {
            const FaultMap map = FaultMap::sample(c, pbf, rng);
            expected.push_back(static_cast<double>(
                simulate_trace(c, map, mech, trace).cycles));
          }
          EXPECT_EQ(simulate_chip_population(p, c, faults, mech, 40, seed),
                    expected)
              << task << " " << c.sets << "x" << c.ways << " pfail=" << pfail
              << " " << mechanism_name(mech);
        }
  }
}

}  // namespace
}  // namespace pwcet
